"""Docs lint: retired spellings and stale cross-references.

The executable-docs test proves ```python blocks still *run*; this file
covers what execution cannot: retired spellings and call shapes inside
non-executed fences (the docs must never teach them), and `docs/*.md`
cross-references to files that no longer (or don't yet) exist.
"""

import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
DOC_FILES = sorted([REPO / "README.md", *(REPO / "docs").glob("*.md")])
EXAMPLE_FILES = sorted((REPO / "examples").glob("*.py"))

#: retired spellings: (name, regex, what replaced it).  All were removed
#: outright (some guarded by L202); docs and examples must use only the
#: current vocabulary.
RETIRED = [
    (
        "SweepRunner legacy kwargs",
        re.compile(
            r"SweepRunner\(\s*(jobs|use_cache|cache_dir|timeout|retries"
            r"|retry_backoff|poison_threshold|journal|resume|trace_dir"
            r"|lanes|backend|batch_size)\s*="
        ),
        "SweepRunner(SweepConfig(...))",
    ),
    (
        "positional simulate(trace, config)",
        re.compile(
            r"\bsimulate\(\s*[\w.\"']+\s*,\s*(default_config|grid_config"
            r"|torus_config|ring_of_rings_config|decentralized_config"
            r"|monolithic_config)\b"
        ),
        "simulate(workload, topology=..., processor=...)",
    ),
    (
        "positional run_trace controller-plus-warmup",
        # four or more positional args: warmup and later are keyword-only
        re.compile(r"\brun_trace\((?:\s*[\w.()\"']+\s*,){3}\s*[\w.()\"']+"),
        "run_trace(trace, config, controller, warmup=...)",
    ),
    (
        "--batch-size flag",
        re.compile(r"--batch-size\b"),
        "--jobs N (every backend runs the fused loop)",
    ),
    (
        "batch_size= keyword",
        re.compile(r"\bbatch_size\s*="),
        "jobs= (every backend runs the fused loop)",
    ),
    (
        "repro.batch package",
        re.compile(r"\brepro\.batch\b"),
        "repro.pipeline.fused.FusedCore",
    ),
]

#: docs/<NAME>.md references must resolve against the real docs tree
_DOC_REF = re.compile(r"\bdocs/([A-Z_]+\.md)\b")


def _fenced_blocks(path):
    """Yield (lineno, text) for every fenced block, whatever the tag —
    retired spellings are banned even in illustrative ```text fences."""
    lines = path.read_text(encoding="utf-8").splitlines()
    start = None
    block = []
    for number, line in enumerate(lines, start=1):
        if start is None:
            if line.lstrip().startswith("```"):
                start = number + 1
                block = []
        elif line.strip() == "```":
            yield start, "\n".join(block)
            start = None
        else:
            block.append(line)


@pytest.mark.parametrize(
    "path", DOC_FILES, ids=[str(p.relative_to(REPO)) for p in DOC_FILES]
)
def test_doc_code_blocks_use_current_vocabulary(path):
    offenders = []
    for lineno, block in _fenced_blocks(path):
        for name, pattern, instead in RETIRED:
            if pattern.search(block):
                offenders.append(
                    f"{path.relative_to(REPO)}:{lineno}: {name} "
                    f"(use {instead})"
                )
    assert not offenders, "\n".join(offenders)


@pytest.mark.parametrize(
    "path",
    EXAMPLE_FILES,
    ids=[str(p.relative_to(REPO)) for p in EXAMPLE_FILES],
)
def test_examples_use_current_vocabulary(path):
    source = path.read_text(encoding="utf-8")
    offenders = [
        f"{path.relative_to(REPO)}: {name} (use {instead})"
        for name, pattern, instead in RETIRED
        if pattern.search(source)
    ]
    assert not offenders, "\n".join(offenders)


@pytest.mark.parametrize(
    "path",
    DOC_FILES + EXAMPLE_FILES,
    ids=[str(p.relative_to(REPO)) for p in DOC_FILES + EXAMPLE_FILES],
)
def test_doc_cross_references_resolve(path):
    text = path.read_text(encoding="utf-8")
    missing = sorted(
        {
            f"docs/{name}"
            for name in _DOC_REF.findall(text)
            if not (REPO / "docs" / name).exists()
        }
    )
    assert not missing, (
        f"{path.relative_to(REPO)} references docs that do not exist: "
        f"{', '.join(missing)}"
    )


def test_lint_catches_retired_spellings():
    """The lint itself must fire: each retired pattern matches its own
    canonical bad example (a regression here means the docs could rot
    silently)."""
    bad = {
        "SweepRunner legacy kwargs": "runner = SweepRunner(jobs=4, use_cache=False)",
        "positional simulate(trace, config)": "simulate(trace, default_config(16))",
        "positional run_trace controller-plus-warmup": (
            "run_trace(trace, config, controller, 4000)"
        ),
        "--batch-size flag": "python -m repro figure5 --batch-size 4",
        "batch_size= keyword": "sweep(specs, batch_size=4)",
        "repro.batch package": "from repro.batch import BatchEngine",
    }
    for name, pattern, _ in RETIRED:
        assert pattern.search(bad[name]), f"{name} no longer matches"
