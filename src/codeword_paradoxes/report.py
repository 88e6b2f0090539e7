"""Report records shared by all CLI commands.

The JSON form is the machine contract: keys sorted, lists canonically
ordered upstream, no timestamps, so a fixed input yields byte-identical
output across runs.  The text form is for humans and deliberately loose.
"""

from __future__ import annotations

import json
import os
from typing import NamedTuple

from . import __version__

REPORT_DIR_ENV = "CODEWORD_PARADOXES_REPORT_DIR"

VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
VERDICT_CONTRADICTION = "contradiction-confirmed"


class Report(NamedTuple):
    command: str
    verdict: str
    code: str | None
    details: dict

    def to_json(self) -> str:
        fields = {"command": self.command, "verdict": self.verdict,
                  "code": self.code, "details": self.details,
                  "version": __version__}
        return json.dumps(fields, sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        if self.code:
            lines.append(f"code:    {self.code}")
        lines.append(f"verdict: {self.verdict}")
        lines.extend(_render(self.details, indent=0))
        return "\n".join(lines) + "\n"

    def write_to_report_dir(self) -> str | None:
        """Drop the JSON form into $CODEWORD_PARADOXES_REPORT_DIR, if set."""
        directory = os.environ.get(REPORT_DIR_ENV)
        if not directory:
            return None
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{self.command}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
        return path


def _render(value, indent: int) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for key in value:
            sub = value[key]
            if isinstance(sub, (dict, list)) and sub:
                lines.append(f"{pad}{key}:")
                lines.extend(_render(sub, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar(sub)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render(item, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar(item)}")
    else:
        lines.append(f"{pad}{_scalar(value)}")
    return lines


def _scalar(x) -> str:
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, (list, dict)) and not x:
        return "(none)"
    return str(x)
