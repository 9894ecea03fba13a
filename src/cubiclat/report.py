"""Certificate reports: a named pass/fail result with enough detail to re-verify."""
from __future__ import annotations

import functools
import time
from fractions import Fraction
from typing import NamedTuple


def jsonable(value):
    """Recursively convert report payloads to JSON-serializable data."""
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else int(value)
    if isinstance(value, bool) or isinstance(value, int) or value is None:
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, frozenset, set)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return [jsonable(v) for v in items]
    return str(value)


class CheckReport(NamedTuple):
    """Result of one scripted certificate.

    ``claim`` states, in self-contained terms, what a passing run certifies;
    ``details`` carries the witnesses and counts needed to re-verify it.
    """
    check_id: str
    claim: str
    status: str
    details: dict
    elapsed_ms: int

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {
            "check_id": self.check_id,
            "claim": self.claim,
            "status": self.status,
            "details": jsonable(self.details),
            "elapsed_ms": self.elapsed_ms,
        }


def certificate(check_id: str, summary: str, claim: str):
    """Declare a certificate: the decorated function returns (ok, details),
    and calling it times that body and returns its ``CheckReport``.

    ``claim`` is formatted with ``details`` (so a literal brace is written
    doubled).  The function carries ``check_id`` and ``summary``; nothing is
    registered here (``checks.REGISTRY`` lists them).
    """
    def declare(body):
        @functools.wraps(body)
        def run(*args, **kwargs) -> CheckReport:
            t0 = time.perf_counter()
            ok, details = body(*args, **kwargs)
            elapsed = int(round((time.perf_counter() - t0) * 1000))
            return CheckReport(check_id=check_id,
                               claim=claim.format_map(details),
                               status="pass" if ok else "fail",
                               details=details, elapsed_ms=elapsed)

        run.check_id, run.summary = check_id, summary
        return run
    return declare
