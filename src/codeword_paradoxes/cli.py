"""Batch command-line front end.

One subcommand per claim cluster, so a CI run can pinpoint which
construction regressed.  Exit codes: 0 the predicted verdict is reproduced,
1 it is falsified (a prominent report is emitted), 2 usage error or an
output path that cannot be written, 3 a bounded search ran out of budget.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import Counter
from json.encoder import encode_basestring_ascii

from .codes import code_by_name, five_qubit_code, steane_code, CODE_NAMES
from .errors import BudgetExceededError
from .kochen_specker import (bit_indices, build_ks_set,
                             build_orthogonality_graph, canonical_contexts,
                             enumerate_contexts, ks_colorability)
from .paradoxes import (build_canonical_array, canonical_pentagon_instance,
                        check_array, check_parity_contradiction,
                        compatible_pairs, find_determinations,
                        pentagon_description, search_parity_contradictions)
from .report import (Report, VERDICT_CONTRADICTION, VERDICT_FAIL, VERDICT_PASS)
from .stabilizer import invariant_subgroup, knill_laflamme_check, verify_stabilizes
from .statevector import inner


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.handler(args)
        out = report.to_json() if args.format == "json" else report.to_text()
        sys.stdout.write(out)
        path = report.write_to_report_dir()
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if path and args.format == "text":
        print(f"report written to {path}")
    return 1 if report.verdict == VERDICT_FAIL else 0


# Built once per process: in-process callers run main() many times, and the
# handlers look up the layer functions as module globals at call time.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codeword-paradoxes",
        description="Exact verification of codeword stabilizers and the "
                    "local-realism contradictions built on them.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(handler=handler)
        return p

    p = add("verify-code", _cmd_verify_code,
            "stabilizer group, signs, invariant subgroup, error correction")
    p.add_argument("--code", choices=CODE_NAMES, required=True)

    p = add("reality", _cmd_reality,
            "element-of-reality determinations for one single-qubit target")
    p.add_argument("--code", choices=CODE_NAMES, required=True)
    p.add_argument("--site", type=int, required=True)
    p.add_argument("--letter", choices=("x", "y", "z"), required=True)
    p.add_argument("--state", type=int, choices=(0, 1), default=0)

    add("pentagon", _cmd_pentagon,
        "the six-operator parity contradiction, both codewords")

    add("array", _cmd_array,
        "the 6x13 operator array: row/column products and the impossibility flag")

    p = add("ks", _cmd_ks,
            "104-projector set, orthogonality graph, contexts, colorability")
    p.add_argument("--budget", type=_int_at_least(0), default=1_000_000,
                   help="node budget for context enumeration")
    p.add_argument("--decision-budget", type=_int_at_least(0), default=1_000_000,
                   help="decision budget for the coloring search")
    p.add_argument("--dump-set", metavar="PATH", default=None,
                   help="write vertex/edge/context tables as JSON")

    p = add("steane-search", _cmd_steane_search,
            "automated parity-contradiction search over the 7-qubit group")
    p.add_argument("--max", dest="max_subset", type=_int_at_least(1), default=10)
    p.add_argument("--state", choices=("0", "1", "both"), default="both")
    p.add_argument("--budget", type=_int_at_least(0), default=3_000_000)

    p = add("selftest", _cmd_selftest,
            "randomized property suites against the dense-matrix oracle")
    p.add_argument("--seed", type=int, default=0)

    return parser


def _int_at_least(low: int):
    """argparse type: an integer no smaller than `low` (else exit 2)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, not {value}")
        return value
    parse.__name__ = "int"
    return parse


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_verify_code(args) -> Report:
    code = code_by_name(args.code)
    group = code.group()
    v0, v1 = code.codeword(0), code.codeword(1)
    violations = verify_stabilizes(group, v0, v1)
    stable = invariant_subgroup(group)
    kl = knill_laflamme_check(v0, v1, code.correctable)
    must_fail_results = []
    for err in code.must_fail:
        probe = knill_laflamme_check(v0, v1, list(code.correctable) + [err])
        must_fail_results.append({"error": str(err), "fails_as_expected": not probe.ok})

    checks = {
        "group_order": {"expected": code.expected_group_order, "got": len(group)},
        "codewords_orthogonal": inner(v0, v1) == (0, 0),
        "all_elements_stabilize": not violations,
        "invariant_subgroup_order": {"expected": code.expected_stable_order,
                                     "got": len(stable)},
        "error_correction_pairs": kl.pairs_checked,
        "error_correction_ok": kl.ok,
        "uncorrectable_errors": must_fail_results,
    }
    ok = (len(group) == code.expected_group_order
          and checks["codewords_orthogonal"]
          and not violations
          and len(stable) == code.expected_stable_order
          and kl.ok
          and all(r["fails_as_expected"] for r in must_fail_results))
    details = {
        "checks": checks,
        "group": [str(e) for e in group],
        "invariant_subgroup": [str(e.op) for e in stable],
        "violations": violations,
        "error_correction_failures": kl.failures,
    }
    return Report("verify-code", VERDICT_PASS if ok else VERDICT_FAIL,
                  code=args.code, details=details)


def _cmd_reality(args) -> Report:
    code = code_by_name(args.code)
    group = code.group()
    if not 1 <= args.site <= code.n:
        print(f"error: --site must be in 1..{code.n} for code {args.code}",
              file=sys.stderr)
        raise SystemExit(2)
    determinations = find_determinations(group, args.site,
                                         args.letter.upper(), args.state)
    pairs = compatible_pairs(determinations)
    details = {
        "target": f"sigma_{args.site}{args.letter}",
        "state": args.state,
        "determinations": [
            {"witness": str(d.witness), "predicted_product": d.predicted_product}
            for d in determinations
        ],
        "determination_count": len(determinations),
        "compatible_pairs": [
            [str(a.witness), str(b.witness)] for a, b in pairs
        ],
        "compatible_pair_count": len(pairs),
    }
    return Report("reality", VERDICT_PASS, code=args.code, details=details)


def _cmd_pentagon(args) -> Report:
    code = five_qubit_code()
    inst = canonical_pentagon_instance(code)
    per_state = {f"codeword{ws}": check_parity_contradiction(inst, ws)._asdict()
                 for ws in (0, 1)}
    confirmed = all(rep["contradiction"] for rep in per_state.values())
    details = {"pentagon": pentagon_description(code), "instances": per_state}
    verdict = VERDICT_CONTRADICTION if confirmed else VERDICT_FAIL
    return Report("pentagon", verdict, code="five", details=details)


def _cmd_array(args) -> Report:
    arr = build_canonical_array()
    rep = check_array(arr)
    ok = (all(rep.row_commuting) and all(rep.col_commuting)
          and rep.row_signs_match and rep.col_signs_match and rep.impossibility)
    details = {
        "shape": list(arr.shape),
        "rows": [[str(op) for op in row] for row in arr.rows],
        "row_commuting": rep.row_commuting,
        "row_products": rep.row_products,
        "col_commuting": rep.col_commuting,
        "col_products": rep.col_products,
        "rowwise_total": rep.rowwise_total,
        "colwise_total": rep.colwise_total,
        "impossibility": rep.impossibility,
    }
    verdict = VERDICT_CONTRADICTION if ok else VERDICT_FAIL
    return Report("array", verdict, code="five", details=details)


def _cmd_ks(args) -> Report:
    path = args.dump_set
    # opened once before the proof, so that an unwritable path fails at once;
    # "a" leaves an existing file as it was, and a proof that stops early
    # removes the empty file that this run created
    created = bool(path) and not os.path.exists(path)
    if path:
        open(path, "a", encoding="utf-8").close()
    try:
        return _ks_proof(args)
    except BaseException:
        if created:
            os.remove(path)
        raise


def _ks_proof(args) -> Report:
    vertices = build_ks_set()
    graph = build_orthogonality_graph(vertices)
    contexts = enumerate_contexts(graph, node_budget=args.budget)
    canon = canonical_contexts(graph)
    canonical_found = set(canon) <= set(contexts)

    verdict_full = ks_colorability(graph.adj, contexts,
                                   decision_budget=args.decision_budget)
    verdict_canon = ks_colorability(graph.adj, canon,
                                    decision_budget=args.decision_budget)

    details = {
        "vertices": len(vertices),
        "rank_counts": Counter(v.rank for v in vertices),
        "projectors_per_dimension": f"{len(vertices)}/32 = {len(vertices) / 32}",
        "edges": graph.edge_count,
        "contexts": len(contexts),
        "canonical_contexts_found": canonical_found,
        "colorability": {
            "satisfiable": verdict_full.satisfiable,
            "decisions": verdict_full.decisions,
            "propagations": verdict_full.propagations,
            "conflicts": verdict_full.conflicts,
        },
        "canonical_contexts_alone_satisfiable": verdict_canon.satisfiable,
    }
    if verdict_full.satisfiable:
        details["coloring"] = {
            v.label(): bool(verdict_full.true >> i & 1)
            for i, v in enumerate(graph.vertices)
        }
    if args.dump_set:
        _dump_ks_set(args.dump_set, graph, contexts)
        details["dump"] = args.dump_set

    ok = (len(vertices) == 104 and canonical_found
          and not verdict_full.satisfiable)
    verdict = VERDICT_CONTRADICTION if ok else VERDICT_FAIL
    return Report("ks", verdict, code="five", details=details)


def _amplitude_text(x: int, exp: int) -> str:
    """x/2**exp as text, for odd x whenever exp > 0 (the mutation entries)."""
    return f"{x}/2^{exp}" if exp else str(x)


def _json_array(items: list[str], indent: str) -> str:
    """Already-encoded items as the JSON array that json.dump(...,
    indent=2) writes for them when the array opens at indentation
    indent."""
    if not items:
        return "[]"
    sep = "\n  " + indent
    return f"[{sep}{(',' + sep).join(items)}\n{indent}]"


def _vertex_json(i: int, v) -> str:
    """Vertex i as its object in the dump, keys sorted, at indentation 4."""
    text = encode_basestring_ascii
    vectors = [_json_array([_json_array([text(format(j, "05b")),
                                         text(_amplitude_text(x, v.scale_exp))],
                                        " " * 10)
                            for j, x in enumerate(iv) if x], " " * 8)
               for iv in v.ivecs]
    provenance = [text(p) if isinstance(p, str) else str(p)
                  for p in v.provenance]
    return (f'{{\n      "id": {i},\n      "kind": {text(v.kind)},\n'
            f'      "label": {text(v.label())},\n'
            f'      "provenance": {_json_array(provenance, " " * 6)},\n'
            f'      "rank": {v.rank},\n'
            f'      "spanning_vectors": {_json_array(vectors, " " * 6)}\n    }}')


def _dump_ks_set(path: str, graph, contexts) -> None:
    """Write the vertices, edges and contexts as the exact text of
    json.dump(payload, sort_keys=True, indent=2) plus a newline, one
    section at a time.  That encoder indents in pure Python; here only the
    strings are encoded, by its C escaper, and the layout is written
    directly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n  "contexts": ')
        fh.write(_json_array([_json_array([str(v) for v in bit_indices(c)],
                                          " " * 4) for c in contexts], "  "))
        fh.write(',\n  "edges": ')
        fh.write(_json_array([f"[\n      {u},\n      {v}\n    ]"
                              for u, v in graph.edges()], "  "))
        fh.write(',\n  "vertices": ')
        fh.write(_json_array([_vertex_json(i, v)
                              for i, v in enumerate(graph.vertices)], "  "))
        fh.write("\n}\n")


def _cmd_steane_search(args) -> Report:
    code = steane_code()
    states = (0, 1) if args.state == "both" else (int(args.state),)
    res = search_parity_contradictions(code, args.max_subset,
                                       node_budget=args.budget)
    sizes = sorted({len(inst.members) for inst in res.instances})
    # each printed example, confirmed on its codeword as the pentagon is
    examples = {ws: [check_parity_contradiction(inst, ws)
                     for inst in res.instances[:3]] for ws in states}
    per_state = {
        f"codeword{ws}": {
            "contradictions_found": len(res.instances),
            "subset_sizes": sizes,
            "minimal_size": sizes[0] if sizes else None,
            "complete_to_size": res.complete_to_size,
            "examples": [rep.operators for rep in examples[ws]],
        }
        for ws in states
    }
    details = {
        "group_order": len(code.group()),
        "max_subset": args.max_subset,
        "results": per_state,
    }
    confirmed = bool(res.instances) and all(
        rep.contradiction for reps in examples.values() for rep in reps)
    verdict = VERDICT_CONTRADICTION if confirmed else VERDICT_FAIL
    return Report("steane-search", verdict, code="steane", details=details)


def _cmd_selftest(args) -> Report:
    # imported here: selftest pulls in the dense oracle, which no other
    # command needs at start-up
    from .selftest import run_all
    results = run_all(seed=args.seed)
    ok = all(r.ok for r in results)
    details = {"seed": args.seed, "suites": [r._asdict() for r in results]}
    return Report("selftest", VERDICT_PASS if ok else VERDICT_FAIL,
                  code=None, details=details)


if __name__ == "__main__":
    sys.exit(main())
