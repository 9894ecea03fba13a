"""The traced benchmark wraps functions of ``src/`` by name (``bench/spans.py``);
a refactor that renames or removes one of them must fail here, not at the
next traced run."""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_trace_hook_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    resolved = spans.resolve_all()
    assert [target for target, *_ in resolved] == list(spans.HOOKS)
