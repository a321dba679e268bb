"""Verdict type shared by every named structure check, and the one rule that
renders every result as JSON-ready builtins.

A check never assumes its hypotheses: shape or hypothesis mismatches yield
status "skipped" with a reason, a verified conclusion yields "pass", and a
violated conclusion yields "fail" with the offending quantities in details.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
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


def combine(tag: str, children: Sequence[CheckResult], **details: Any) -> CheckResult:
    """Fold sub-check verdicts: any fail -> fail, all skipped -> skipped."""
    merged = dict(details)
    merged["checks"] = render(children)
    failures = [c for c in children if c.status == FAIL]
    if failures:
        reason = "; ".join(f"{c.tag}: {c.reason}" for c in failures)
        return CheckResult(tag, FAIL, reason, merged)
    if children and all(c.status == SKIPPED for c in children):
        return CheckResult(tag, SKIPPED, children[0].reason, merged)
    return CheckResult(tag, PASS, "", merged)


def render(obj: Any) -> Any:
    """The one rendering rule: obj as JSON-ready builtins (dict, list, int,
    str, bool, None).  Mappings and sequences are rendered entry by entry and
    numpy values through tolist(); a result record renders as its as_dict()
    view where it keeps one (a view derived from its fields), else as its
    dataclass fields.  Anything else raises TypeError."""
    if isinstance(obj, Mapping):
        return {str(k): render(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [render(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if hasattr(obj, "tolist") and hasattr(obj, "dtype"):  # numpy scalar or array
        return render(obj.tolist())
    if hasattr(obj, "as_dict"):
        return render(obj.as_dict())
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: render(getattr(obj, f.name)) for f in fields(obj)}
    raise TypeError(f"cannot render {type(obj).__name__} as JSON")
