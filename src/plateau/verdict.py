"""Verdict type shared by every named structure check.

A check never assumes its hypotheses: shape or hypothesis mismatches yield
status "skipped" with a reason, a verified conclusion yields "pass", and a
violated conclusion yields "fail" with the offending quantities in details.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


@dataclass(frozen=True)
class CheckResult:
    tag: str
    status: str
    reason: str = ""
    details: Mapping[str, Any] = field(default_factory=dict)

    @classmethod
    def passed(cls, tag: str, **details: Any) -> "CheckResult":
        return cls(tag, PASS, "", details)

    @classmethod
    def failed(cls, tag: str, reason: str, **details: Any) -> "CheckResult":
        return cls(tag, FAIL, reason, details)

    @classmethod
    def skipped(cls, tag: str, reason: str, **details: Any) -> "CheckResult":
        return cls(tag, SKIPPED, reason, details)

    @classmethod
    def judged(cls, tag: str, problems: Sequence[str], **details: Any) -> "CheckResult":
        """Fail with the problems joined by "; " when there are any, else pass."""
        if problems:
            return cls(tag, FAIL, "; ".join(problems), details)
        return cls(tag, PASS, "", details)

    @property
    def ok(self) -> bool:
        return self.status != FAIL

    def as_dict(self) -> dict:
        return {
            "tag": self.tag,
            "status": self.status,
            "reason": self.reason,
            "details": _plain(self.details),
        }


def combine(tag: str, children: Sequence[CheckResult], **details: Any) -> CheckResult:
    """Fold sub-check verdicts: any fail -> fail, all skipped -> skipped."""
    merged = dict(details)
    merged["checks"] = [c.as_dict() for c in children]
    failures = [c for c in children if c.status == FAIL]
    if failures:
        reason = "; ".join(f"{c.tag}: {c.reason}" for c in failures)
        return CheckResult(tag, FAIL, reason, merged)
    if children and all(c.status == SKIPPED for c in children):
        return CheckResult(tag, SKIPPED, children[0].reason, merged)
    return CheckResult(tag, PASS, "", merged)


def _plain(obj: Any) -> Any:
    """Recursively convert details to JSON-serializable builtins."""
    if isinstance(obj, Mapping):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, str)):
        return obj
    if hasattr(obj, "tolist") and hasattr(obj, "dtype"):  # numpy scalar or array
        return _plain(obj.tolist())
    if hasattr(obj, "as_dict"):
        return _plain(obj.as_dict())
    return repr(obj)
