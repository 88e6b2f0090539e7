"""In-memory spans around the package's layer entry points.

The traced repetition wraps, from outside the package, the functions each
CLI handler calls (and the few that those call across a module boundary), so
the handler itself runs unchanged, in its own order.  A span records its
name, start, end and parent; spans stay in memory and are written out once
the repetition ends.  Counts are taken from the wrapped calls' results, at
the same boundaries.
"""

from __future__ import annotations

import json
import sys
from bisect import bisect_right
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, fn, name, on_result=None):
        """fn with a span called `name` around each call; on_result(counts,
        result) records the call's work counts."""
        spans, stack, counts = self.spans, self._stack, self.counts

        @wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(counts, result)
            return result

        return traced

    def self_times(self, gaps=()) -> dict[str, float]:
        """Per span name: summed duration minus the time its children cover
        and the (start, end) gaps that fall inside it, such as the speed
        probe's samples, which interrupt whatever span is open.

        Calls are nested on one thread, so children never overlap, and spans
        are stored in the order they started.
        """
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        starts = [span[1] for span in self.spans]
        for gap_start, gap_end in gaps:
            i = bisect_right(starts, gap_start) - 1
            while i >= 0 and self.spans[i][2] < gap_end:
                parent = self.spans[i][3]
                i = -1 if parent is None else parent
            if i >= 0:
                covered[i] += gap_end - gap_start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            totals[name] += end - start - covered[i]
        return dict(totals)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def _search_counts(counts, res):
    counts["paradoxes.search_calls"] += 1
    counts["paradoxes.search_nodes"] += res.nodes_used
    counts["paradoxes.instances"] += len(res.instances)
    counts["paradoxes.complete_to_size"] += res.complete_to_size
    counts["paradoxes.eigensign_calls"] += sum(len(i.members) for i in res.instances)


def _coloring_counts(counts, verdict):
    counts["kochen_specker.decisions"] += verdict.decisions
    counts["kochen_specker.propagations"] += verdict.propagations
    counts["kochen_specker.conflicts"] += verdict.conflicts


def install(tracer: Tracer) -> None:
    """Route the layer entry points of codeword_paradoxes through tracer."""
    from codeword_paradoxes import cli, codes, paradoxes, report, selftest

    def patch(module, attr, name, on_result=None):
        fn = getattr(module, attr, None)
        if fn is None:
            print(f"trace: {module.__name__}.{attr} not found; "
                  f"span {name} reads 0", file=sys.stderr)
            return
        setattr(module, attr, tracer.wrap(fn, name, on_result))

    patch(codes, "close", "stabilizer.close")
    patch(cli, "verify_stabilizes", "stabilizer.verify_stabilizes")
    patch(cli, "invariant_subgroup", "stabilizer.invariant_subgroup")
    patch(cli, "knill_laflamme_check", "stabilizer.knill_laflamme",
          lambda c, r: c.update({"stabilizer.kl_pairs": r.pairs_checked}))

    patch(cli, "find_determinations", "paradoxes.determinations")
    patch(cli, "compatible_pairs", "paradoxes.determinations")
    for attr in ("canonical_pentagon_instance", "check_parity_contradiction",
                 "pentagon_description"):
        patch(cli, attr, "paradoxes.parity_check")
    patch(cli, "build_canonical_array", "paradoxes.array")
    patch(cli, "check_array", "paradoxes.array")
    patch(cli, "search_parity_contradictions", "paradoxes.search", _search_counts)
    patch(selftest, "search_parity_contradictions", "paradoxes.search",
          _search_counts)
    # the search revalidates each instance it returns through this name
    patch(paradoxes, "check_parity_contradiction", "paradoxes.revalidate")

    patch(cli, "build_ks_set", "kochen_specker.build_set")
    patch(cli, "build_orthogonality_graph", "kochen_specker.graph",
          lambda c, g: c.update({"kochen_specker.edges": g.edge_count}))
    patch(cli, "enumerate_contexts", "kochen_specker.contexts",
          lambda c, cs: c.update({"kochen_specker.contexts": len(cs)}))
    canonical = []
    patch(cli, "canonical_contexts", "kochen_specker.contexts",
          lambda c, cs: canonical.append(cs))
    patch(cli, "ks_colorability", "kochen_specker.coloring", _coloring_counts)
    full = getattr(cli, "ks_colorability", None)
    if full is not None:
        canon = tracer.wrap(full.__wrapped__, "kochen_specker.coloring_canonical")

        def ks_colorability(graph, contexts, **kwargs):
            # the handler also colours the seven canonical contexts alone
            solver = canon if any(contexts is cs for cs in canonical) else full
            return solver(graph, contexts, **kwargs)

        cli.ks_colorability = ks_colorability
    patch(cli, "_dump_ks_set", "cli.dump_set")

    for attr, name in (("dense_oracle_suite", "selftest.dense_oracle"),
                       ("apply_compose_suite", "selftest.apply_compose"),
                       ("algebra_laws_suite", "selftest.algebra_laws"),
                       ("parity_rediscovery_suite", "selftest.parity_rediscovery")):
        patch(selftest, attr, name)

    patch(report.Report, "to_json", "report.to_json")
