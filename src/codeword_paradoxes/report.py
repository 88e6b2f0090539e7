"""Report records shared by all CLI commands.

The JSON form is the machine contract: keys sorted, lists canonically
ordered upstream, no timestamps, so a fixed input yields byte-identical
output across runs.  It is exactly the text of json.dumps(fields,
sort_keys=True, indent=2) plus a newline, for reports that hold only str,
int, bool, None, lists, tuples and dicts.  The text form is for humans and
deliberately loose.
"""

from __future__ import annotations

import os
from json.encoder import encode_basestring_ascii
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
        # the stdlib encoder indents only in its pure-Python generator
        out: list[str] = []
        _write_json(fields, "", out.append)
        out.append("\n")
        return "".join(out)

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        if self.code:
            lines.append(f"code:    {self.code}")
        lines.append(f"verdict: {self.verdict}")
        lines.extend(_render(self.details, indent=0))
        return "\n".join(lines) + "\n"

    def write_to_report_dir(self, encoded: str | None = None) -> str | None:
        """Drop the JSON form into $CODEWORD_PARADOXES_REPORT_DIR, if set;
        encoded, when given, is that form as to_json() already wrote it."""
        directory = os.environ.get(REPORT_DIR_ENV)
        if not directory:
            return None
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{self.command}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() if encoded is None else encoded)
        return path


def _write_json(value, pad: str, write) -> None:
    """Pass value's text to write in pieces, as json.dumps(value,
    sort_keys=True, indent=2) writes it when it opens at indentation pad.

    A dict's items come in the order of its sorted keys, and an int key is
    written as its decimal string.  A tuple is written as a list.  Any other
    type, float included, raises TypeError: a report holds no float."""
    if isinstance(value, str):
        write(encode_basestring_ascii(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            write("[]")
            return
        inner = pad + "  "
        opening, sep = "[\n" + inner, ",\n" + inner
        for item in value:
            write(opening)
            opening = sep
            _write_json(item, inner, write)
        write("\n" + pad + "]")
    elif isinstance(value, dict):
        if not value:
            write("{}")
            return
        inner = pad + "  "
        opening, sep = "{\n" + inner, ",\n" + inner
        for key, item in sorted(value.items()):
            write(opening)
            opening = sep
            write(encode_basestring_ascii(key) if isinstance(key, str)
                  else _int_key(key))
            write(": ")
            _write_json(item, inner, write)
        write("\n" + pad + "}")
    elif value is None:
        write("null")
    elif value is True:
        write("true")
    elif value is False:
        write("false")
    elif isinstance(value, int):
        write(int.__repr__(value))
    else:
        raise TypeError(f"a report holds no {type(value).__name__} value")


def _int_key(key) -> str:
    if isinstance(key, int) and not isinstance(key, bool):
        return f'"{int.__repr__(key)}"'
    raise TypeError(f"a report key is str or int, not {type(key).__name__}")


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
