"""Shared validation report structure."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class Finding:
    """One validation observation.

    severity is "error" for contract violations, "info" for properties that
    are reported but not required (e.g. which coisometry conditions hold).
    where is the vertex or edge a finding is about, or None for the whole
    input, so that one with the empty id "" stays distinguishable.
    """

    code: str
    message: str
    where: str | None = None
    severity: str = "error"

    def to_json(self) -> dict:
        return {"code": self.code, "message": self.message, "where": self.where,
                "severity": self.severity}


@dataclass
class ValidationReport:
    findings: list[Finding] = field(default_factory=list)

    def add(
        self, code: str, message: str, where: str | None = None, severity: str = "error"
    ) -> None:
        self.findings.append(Finding(code, message, where, severity))

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def valid(self) -> bool:
        return not self.errors

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "findings": [f.to_json() for f in self.findings],
        }
