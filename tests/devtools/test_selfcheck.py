"""The tree lints itself: ``repro lint`` over the shipped code is clean.

This is the acceptance gate from the static-analysis PR wired into
tier-1: any change that reintroduces an uninterned hot-path frozenset, a
lazily-drained pool, unseeded randomness, a clock read in a
record-producing package, or a pickle-unsafe slots class fails the suite
immediately — not in some later nightly.
"""

from __future__ import annotations

import os

from repro.devtools import Baseline, lint_paths

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def _root(*parts: str) -> str:
    return os.path.join(REPO_ROOT, *parts)


def test_shipped_tree_is_lint_clean():
    baseline = Baseline.load(_root("lint-baseline.json"))
    report = lint_paths(
        [_root("src"), _root("tests"), _root("benchmarks"),
         _root("perfbench")],
        baseline=baseline,
    )
    assert report.clean, "\n".join(f.describe() for f in report.findings)
    assert report.files_checked > 100


def test_committed_baseline_is_empty():
    """The shipped tree carries no lint debt; keep it that way.

    If you are reading this because a rule you added surfaced legacy
    findings you cannot fix in the same PR, regenerate the baseline with
    ``repro lint src/ tests/ benchmarks/ --update-baseline`` and delete
    this test's emptiness assertion in the same commit — the self-check
    above still gates on *new* findings.
    """
    baseline = Baseline.load(_root("lint-baseline.json"))
    assert len(baseline) == 0
