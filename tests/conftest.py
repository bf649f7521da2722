"""Shared plumbing: collect acceptance lines and repeat them in the summary, and read what gap-points prints."""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from pe2ford.cli import main
from pe2ford.orders import make_order

acceptance_lines: list[str] = []


@pytest.fixture
def criterion():
    """Record one pass/fail line for an acceptance criterion.

    Call it exactly once per test; it asserts, so a FAIL line also fails
    the test carrying it.
    """

    def record(num: int, problems: list[str], detail: str, elapsed: float) -> None:
        ok = not problems
        text = detail if ok else "; ".join(problems[:4])
        line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {text} ({elapsed:.1f}s)"
        acceptance_lines.append(line)
        print(line)
        assert ok, line

    return record


@pytest.fixture
def printed_checked():
    """The `checked` lists that `gap-points --format json` prints for an order and a count, as lattice points."""

    def read(delta: int, count: int) -> list[tuple]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["gap-points", "--disc", str(delta), "--count", str(count), "--format", "json"]) == 0
        order = make_order(delta)
        return [tuple(order.elt(a, b) for a, b in p["checked"]) for p in json.loads(out.getvalue())["points"]]

    return read


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
