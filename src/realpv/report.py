"""Deterministic check reports for the command line, the library and tests.

A report is an ordered list of checks plus a JSON-friendly payload.  A
check is a named PASS/FAIL line, or an INFO line when it carries no
verdict.  Every certificate, correspondence, twist and demonstration
reports through this one type.  Rendering is byte-deterministic:
insertion order for text, sorted keys for JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

__all__ = ["Check", "Report"]


class Check(NamedTuple):
    name: str
    passed: bool | None  # None for an INFO line
    detail: str = ""

    @property
    def status(self) -> str:
        if self.passed is None:
            return "INFO"
        return "PASS" if self.passed else "FAIL"

    def render(self) -> str:
        body = f"[{self.status}] {self.name}"
        if self.detail:
            body += f": {self.detail}"
        return body


@dataclass
class Report:
    title: str = ""
    lines: list[Check] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.lines.append(Check(name, bool(passed), detail))

    def info(self, name: str, detail: str = "") -> None:
        self.lines.append(Check(name, None, detail))

    def extend(self, other: "Report") -> None:
        """Append the checks of another report, keeping their order."""
        self.lines.extend(other.lines)

    @property
    def ok(self) -> bool:
        return all(line.passed is not False for line in self.lines)

    def failures(self) -> list[Check]:
        return [line for line in self.lines if line.passed is False]

    def to_text(self) -> str:
        out = [self.title]
        out += ["  " + line.render() for line in self.lines]
        out.append(f"result: {'ok' if self.ok else 'FAILED'}")
        return "\n".join(out) + "\n"

    def payload(self) -> dict:
        """The report as the object `to_json` encodes; a list of reports is
        encoded as the list of their payloads."""
        return {
            "title": self.title,
            "ok": self.ok,
            "checks": [
                {"name": l.name, "status": l.status, "detail": l.detail}
                for l in self.lines
            ],
            "data": self.data,
        }

    def to_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True, indent=2) + "\n"
