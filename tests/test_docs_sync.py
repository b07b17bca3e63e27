"""Docs-as-test: the operator guides must cover the real surface.

``docs/CAMPAIGN.md`` promises to document *every* flag of the
``campaign`` subcommand.  This test introspects the live argparse
parser so the guide cannot silently drift from ``src/repro/cli.py``:
adding a campaign flag without documenting it fails here.  The other
direction holds too: every flag a guide's flag table documents must
exist on the live parser of its subcommand, so removing a flag without
removing its row fails here.

``docs/EXPLORATION.md`` makes the symmetric promise for the
exploration engine: the ablation method, every profile counter and
gauge it names, and every module path it mentions must exist in the
code.

``docs/MUTATION.md`` promises the same for the mutation engine: every
``mutate`` flag documented, every ``mutation.*`` counter recorded in
the source, every mentioned module path real, and the guide reachable
from its siblings.

``docs/STITCHING.md`` promises the same for the stitching layer:
every ``stitch`` flag (the ``stitch`` subcommand's own plus the
``--stitch-*`` knobs on ``campaign``/``mutate``) documented, every
``stitch.*`` counter recorded, every module path real, and the guide
cross-linked from ``README.md``, CAMPAIGN.md, MUTATION.md and
``DESIGN.md`` §17.

``docs/INCREMENTAL.md`` promises the same for the incremental engine:
the ``--cache-dir``/``--no-cache`` flags and the ``cache`` subcommand
documented, every ``cache.*`` counter recorded in the source, every
module path real, and the guide cross-linked from ``README.md``,
CAMPAIGN.md, MUTATION.md, PERFORMANCE.md and ``DESIGN.md`` §18.

``docs/RESILIENCE.md`` promises the same for the robustness layer:
the supervision flags (``--cell-timeout``, ``--worker-memory-mb``,
``--worker-cpu-seconds``) documented, every supervision / IO-health
counter recorded in the source, every fault kind documented, every
module path real, ``DESIGN.md`` §19 present, and the CI
``chaos-smoke`` job actually wired to the chaos harness.

``docs/INDEX.md`` is the architecture map: every ``docs/*.md`` guide
and every ``src/repro/*`` package must appear in it.  Finally, a
repo-wide sweep asserts that *no* guide (nor ``DESIGN.md`` /
``ROADMAP.md``) mentions a ``src/...py`` module path that does not
exist — the stale-reference class of drift.
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCS = ROOT / "docs" / "CAMPAIGN.md"
EXPLORATION = ROOT / "docs" / "EXPLORATION.md"
MUTATION = ROOT / "docs" / "MUTATION.md"
STITCHING = ROOT / "docs" / "STITCHING.md"
INCREMENTAL = ROOT / "docs" / "INCREMENTAL.md"
INDEX = ROOT / "docs" / "INDEX.md"


def subparser_for(name: str) -> argparse.ArgumentParser:
    parser = build_parser()
    subparsers = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return subparsers.choices[name]


def campaign_subparser() -> argparse.ArgumentParser:
    return subparser_for("campaign")


def subcommand_flags(name: str) -> list[str]:
    flags = []
    for action in subparser_for(name)._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        flags.extend(action.option_strings)
    return flags


def campaign_flags() -> list[str]:
    return subcommand_flags("campaign")


def test_the_campaign_parser_has_flags():
    """Guard the introspection itself: if argparse internals shift and
    we silently enumerate nothing, the sync test below would pass
    vacuously."""
    flags = campaign_flags()
    assert "--jobs" in flags
    assert "--journal" in flags
    assert len(flags) >= 10


@pytest.mark.parametrize("flag", campaign_flags())
def test_campaign_flag_is_documented(flag):
    text = DOCS.read_text(encoding="utf-8")
    assert f"`{flag}" in text or f"{flag} " in text, (
        f"{flag} is missing from docs/CAMPAIGN.md — every campaign "
        "flag must appear in the operator guide"
    )


#: Each guide with a flag table, and the subcommands whose live
#: parsers its rows describe.
FLAG_TABLES = {
    "CAMPAIGN.md": ("campaign",),
    "MUTATION.md": ("mutate",),
    "STITCHING.md": ("stitch", "campaign", "mutate"),
    "EXPLORATION.md": ("campaign",),
}


def flag_table_rows() -> list[tuple[str, str]]:
    """``(guide, flag)`` for every flag in a flag-table row's first
    cell (``| `-j N`, `--jobs N` | ...`` documents both)."""
    rows = []
    for guide in FLAG_TABLES:
        text = (ROOT / "docs" / guide).read_text(encoding="utf-8")
        for line in text.splitlines():
            if line.startswith("| `-"):
                first_cell = line.split("|")[1]
                rows.extend((guide, flag) for flag in
                            re.findall(r"`(-[\w-]+)", first_cell))
    return rows


def test_flag_tables_are_found():
    """Guard the row parser: the reverse check below must not pass
    vacuously."""
    guides = [guide for guide, _flag in flag_table_rows()]
    assert guides.count("CAMPAIGN.md") >= 20
    assert guides.count("MUTATION.md") >= 15
    assert guides.count("STITCHING.md") >= 5
    assert ("CAMPAIGN.md", "-j") in flag_table_rows()


@pytest.mark.parametrize("guide, flag", flag_table_rows())
def test_documented_flag_exists(guide, flag):
    commands = FLAG_TABLES[guide]
    live = {f for command in commands for f in subcommand_flags(command)}
    assert flag in live, (
        f"docs/{guide} documents {flag}, which no {'/'.join(commands)} "
        "parser has — remove the stale row"
    )


def test_guide_links_are_not_stale():
    """The guide points at sibling docs and tests; keep them existing."""
    root = DOCS.parent.parent
    assert (root / "docs" / "RESILIENCE.md").exists()
    assert (root / "tests" / "test_docs_sync.py").exists()
    assert "DESIGN.md" in DOCS.read_text(encoding="utf-8")


def test_markdown_cross_links_resolve():
    """Every `(X.md)` link in docs/ points at an existing sibling."""
    for guide in sorted((ROOT / "docs").glob("*.md")):
        for target in re.findall(r"\]\(([A-Z_]+\.md)\)", guide.read_text(encoding="utf-8")):
            assert (ROOT / "docs" / target).exists(), (
                f"{guide.name} links to docs/{target}, which does not exist"
            )


# ----------------------------------------------------------------------
# docs/EXPLORATION.md


def exploration_text() -> str:
    return EXPLORATION.read_text(encoding="utf-8")


def exploration_counters() -> list[str]:
    """Counter/gauge names the exploration guide documents."""
    return sorted(set(re.findall(r"`((?:snapshot|pathtree)\.[a-z_]+)`",
                                 exploration_text())))


def exploration_module_paths() -> list[str]:
    """`src/...py` module paths the exploration guide mentions."""
    return sorted(set(re.findall(r"`(src/[\w/]+\.py)`", exploration_text())))


def test_exploration_guide_introspection_is_not_vacuous():
    assert len(exploration_counters()) >= 6
    assert "src/repro/concolic/pathtree.py" in exploration_module_paths()


def test_exploration_guide_documents_the_ablation_method():
    """The from-the-root loop is a method, not a campaign switch: the
    guide names the method, and the method exists."""
    from repro.concolic.explorer import ConcolicExplorer

    assert callable(ConcolicExplorer.explore_raw)
    assert "`ConcolicExplorer.explore_raw`" in exploration_text()


@pytest.mark.parametrize("name", exploration_counters())
def test_exploration_counter_exists_in_source(name):
    """Every counter/gauge the guide names is actually recorded."""
    sources = (ROOT / "src" / "repro").rglob("*.py")
    assert any(name in path.read_text(encoding="utf-8") for path in sources), (
        f"{name} appears in docs/EXPLORATION.md but nowhere in src/repro"
    )


@pytest.mark.parametrize("path", exploration_module_paths())
def test_exploration_module_path_exists(path):
    assert (ROOT / path).exists(), (
        f"docs/EXPLORATION.md mentions {path}, which does not exist"
    )


def test_exploration_guide_is_cross_linked():
    """The guide is discoverable from its siblings and the README."""
    for referrer in (
        ROOT / "README.md",
        ROOT / "docs" / "CAMPAIGN.md",
        ROOT / "docs" / "PERFORMANCE.md",
    ):
        assert "EXPLORATION.md" in referrer.read_text(encoding="utf-8"), (
            f"{referrer.name} does not link to docs/EXPLORATION.md"
        )
    assert "## 15." in (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    walkthrough = (ROOT / "docs" / "WALKTHROUGH.md").read_text(encoding="utf-8")
    assert "## 6." in walkthrough and "path tree" in walkthrough


# ----------------------------------------------------------------------
# docs/MUTATION.md


def mutation_text() -> str:
    return MUTATION.read_text(encoding="utf-8")


def mutation_counters() -> list[str]:
    """Counter/gauge names the mutation guide documents."""
    return sorted(set(re.findall(r"`(mutation\.[a-z_]+)`", mutation_text())))


def mutation_module_paths() -> list[str]:
    """`src/...py` module paths the mutation guide mentions."""
    return sorted(set(re.findall(r"`(src/[\w/]+\.py)`", mutation_text())))


def test_mutation_guide_introspection_is_not_vacuous():
    assert len(mutation_counters()) >= 4
    assert "src/repro/mutation/registry.py" in mutation_module_paths()


@pytest.mark.parametrize("flag", subcommand_flags("mutate"))
def test_mutate_flag_is_documented(flag):
    assert f"`{flag}" in mutation_text() or f"{flag} " in mutation_text(), (
        f"{flag} is missing from docs/MUTATION.md — every mutate flag "
        "must appear in the operator guide"
    )


@pytest.mark.parametrize("name", mutation_counters())
def test_mutation_counter_exists_in_source(name):
    sources = (ROOT / "src" / "repro").rglob("*.py")
    assert any(name in path.read_text(encoding="utf-8") for path in sources), (
        f"{name} appears in docs/MUTATION.md but nowhere in src/repro"
    )


@pytest.mark.parametrize("path", mutation_module_paths())
def test_mutation_module_path_exists(path):
    assert (ROOT / path).exists(), (
        f"docs/MUTATION.md mentions {path}, which does not exist"
    )


def test_mutation_guide_documents_every_mutant():
    """Every registered mutant id appears in the operator-corpus table."""
    from repro.mutation import all_ids

    text = mutation_text()
    for mutant_id in all_ids():
        assert f"`{mutant_id}`" in text, (
            f"mutant {mutant_id} is not documented in docs/MUTATION.md"
        )


def test_mutation_guide_is_cross_linked():
    """The guide is discoverable from its siblings and the README."""
    for referrer in (
        ROOT / "README.md",
        ROOT / "docs" / "CAMPAIGN.md",
        ROOT / "docs" / "RESILIENCE.md",
    ):
        assert "MUTATION.md" in referrer.read_text(encoding="utf-8"), (
            f"{referrer.name} does not link to docs/MUTATION.md"
        )
    assert "## 16." in (ROOT / "DESIGN.md").read_text(encoding="utf-8")


# ----------------------------------------------------------------------
# docs/STITCHING.md


def stitching_text() -> str:
    return STITCHING.read_text(encoding="utf-8")


def stitch_flags() -> list[str]:
    """Every stitch-related flag in the CLI: the ``stitch``
    subcommand's own flags plus the shared ``--stitch*`` budget knobs
    on ``campaign`` (identical on ``mutate`` — both call
    ``add_stitch_arguments``)."""
    flags = list(subcommand_flags("stitch"))
    flags.extend(f for f in campaign_flags() if f.startswith("--stitch"))
    return sorted(set(flags))


def stitch_counters() -> list[str]:
    """Counter/gauge names the stitching guide documents."""
    return sorted(set(re.findall(r"`(stitch\.[a-z_]+)`", stitching_text())))


def stitch_module_paths() -> list[str]:
    """`src/...py` module paths the stitching guide mentions."""
    return sorted(set(re.findall(r"`(src/[\w/]+\.py)`", stitching_text())))


def test_stitching_guide_introspection_is_not_vacuous():
    assert len(stitch_counters()) >= 5
    assert "src/repro/stitch/corpus.py" in stitch_module_paths()
    assert "--stitch" in stitch_flags()
    assert "--stitch-depth" in stitch_flags()


@pytest.mark.parametrize("flag", stitch_flags())
def test_stitch_flag_is_documented(flag):
    assert f"`{flag}" in stitching_text() or f"{flag} " in stitching_text(), (
        f"{flag} is missing from docs/STITCHING.md — every stitch flag "
        "must appear in the operator guide"
    )


@pytest.mark.parametrize("name", stitch_counters())
def test_stitch_counter_exists_in_source(name):
    sources = (ROOT / "src" / "repro").rglob("*.py")
    assert any(name in path.read_text(encoding="utf-8") for path in sources), (
        f"{name} appears in docs/STITCHING.md but nowhere in src/repro"
    )


@pytest.mark.parametrize("path", stitch_module_paths())
def test_stitch_module_path_exists(path):
    assert (ROOT / path).exists(), (
        f"docs/STITCHING.md mentions {path}, which does not exist"
    )


def test_stitching_guide_is_cross_linked():
    """The guide is discoverable from its siblings, the README and
    the promised DESIGN.md §17."""
    for referrer in (
        ROOT / "README.md",
        ROOT / "docs" / "CAMPAIGN.md",
        ROOT / "docs" / "MUTATION.md",
    ):
        assert "STITCHING.md" in referrer.read_text(encoding="utf-8"), (
            f"{referrer.name} does not link to docs/STITCHING.md"
        )
    assert "## 17." in (ROOT / "DESIGN.md").read_text(encoding="utf-8")


# ----------------------------------------------------------------------
# docs/INCREMENTAL.md


def incremental_text() -> str:
    return INCREMENTAL.read_text(encoding="utf-8")


def incremental_flags() -> list[str]:
    """Every incremental-engine flag: the ``cache`` subcommand's own
    plus the shared ``--cache-dir``/``--no-cache`` knobs on
    ``campaign`` (identical on ``mutate`` — both call
    ``add_cache_arguments``)."""
    flags = list(subcommand_flags("cache"))
    flags.extend(f for f in campaign_flags()
                 if f in ("--cache-dir", "--no-cache"))
    return sorted(set(flags))


def incremental_counters() -> list[str]:
    """Counter names the incremental guide documents."""
    return sorted(set(re.findall(r"`(cache\.[a-z_]+)`",
                                 incremental_text())))


def incremental_module_paths() -> list[str]:
    """`src/...py` module paths the incremental guide mentions."""
    return sorted(set(re.findall(r"`(src/[\w/]+\.py)`",
                                 incremental_text())))


def test_incremental_guide_introspection_is_not_vacuous():
    assert len(incremental_counters()) >= 4
    assert "src/repro/incremental/fingerprint.py" in incremental_module_paths()
    assert "--cache-dir" in incremental_flags()
    assert "--no-cache" in incremental_flags()


def test_cache_flags_exist_on_campaign_and_mutate():
    """The guide documents cache flags as shared; keep them shared."""
    for subcommand in ("campaign", "mutate"):
        flags = subcommand_flags(subcommand)
        assert "--cache-dir" in flags and "--no-cache" in flags, (
            f"`{subcommand}` lost its cache flags — docs/INCREMENTAL.md "
            "documents them as shared via add_cache_arguments"
        )


@pytest.mark.parametrize("flag", incremental_flags())
def test_incremental_flag_is_documented(flag):
    text = incremental_text()
    assert f"`{flag}" in text or f"{flag} " in text, (
        f"{flag} is missing from docs/INCREMENTAL.md — every cache "
        "flag must appear in the operator guide"
    )


@pytest.mark.parametrize("name", incremental_counters())
def test_incremental_counter_exists_in_source(name):
    sources = (ROOT / "src" / "repro").rglob("*.py")
    assert any(name in path.read_text(encoding="utf-8") for path in sources), (
        f"{name} appears in docs/INCREMENTAL.md but nowhere in src/repro"
    )


@pytest.mark.parametrize("path", incremental_module_paths())
def test_incremental_module_path_exists(path):
    assert (ROOT / path).exists(), (
        f"docs/INCREMENTAL.md mentions {path}, which does not exist"
    )


def test_incremental_guide_documents_the_stats_line():
    """The `result cache:` stdout line is the CI parse surface; the
    guide must show it and the CLI must print it in that shape."""
    assert "result cache:" in incremental_text()
    from repro.cli import print_cache_stats  # the line lives here
    assert print_cache_stats is not None


def test_incremental_guide_is_cross_linked():
    """The guide is discoverable from its siblings, the README and
    the promised DESIGN.md §18."""
    for referrer in (
        ROOT / "README.md",
        ROOT / "docs" / "CAMPAIGN.md",
        ROOT / "docs" / "MUTATION.md",
        ROOT / "docs" / "PERFORMANCE.md",
    ):
        assert "INCREMENTAL.md" in referrer.read_text(encoding="utf-8"), (
            f"{referrer.name} does not link to docs/INCREMENTAL.md"
        )
    assert "## 18." in (ROOT / "DESIGN.md").read_text(encoding="utf-8")


# ----------------------------------------------------------------------
# docs/RESILIENCE.md — supervision, degradation, chaos


RESILIENCE = ROOT / "docs" / "RESILIENCE.md"


def resilience_text() -> str:
    return RESILIENCE.read_text(encoding="utf-8")


def resilience_counters() -> list[str]:
    """Counter names the resilience guide documents."""
    return sorted(set(re.findall(
        r"`((?:supervision|io|journal|store|pool)\.[a-z_]+)`",
        resilience_text(),
    )))


def resilience_module_paths() -> list[str]:
    """`src/...py` module paths the resilience guide mentions."""
    return sorted(set(re.findall(r"`(src/[\w/]+\.py)`", resilience_text())))


def test_resilience_guide_introspection_is_not_vacuous():
    assert len(resilience_counters()) >= 6
    assert "src/repro/robustness/supervise.py" in resilience_module_paths()
    assert "src/repro/robustness/chaos.py" in resilience_module_paths()


@pytest.mark.parametrize(
    "flag", ["--cell-timeout", "--worker-memory-mb", "--worker-cpu-seconds"]
)
def test_supervision_flag_exists_and_is_documented(flag):
    """The supervision flags are real CLI surface and the resilience
    guide documents each (CAMPAIGN.md is covered by the flag sweep)."""
    assert flag in campaign_flags()
    assert f"`{flag}" in resilience_text()


@pytest.mark.parametrize("name", resilience_counters())
def test_resilience_counter_exists_in_source(name):
    sources = (ROOT / "src" / "repro").rglob("*.py")
    assert any(name in path.read_text(encoding="utf-8") for path in sources), (
        f"{name} appears in docs/RESILIENCE.md but nowhere in src/repro"
    )


@pytest.mark.parametrize("path", resilience_module_paths())
def test_resilience_module_path_exists(path):
    assert (ROOT / path).exists(), (
        f"docs/RESILIENCE.md mentions {path}, which does not exist"
    )


def fault_kinds() -> list[str]:
    from repro.robustness.faults import FAULT_KINDS

    return list(FAULT_KINDS)


@pytest.mark.parametrize("kind", fault_kinds())
def test_every_fault_kind_is_documented(kind):
    assert f"`{kind}`" in resilience_text(), (
        f"fault kind {kind} is not documented in docs/RESILIENCE.md"
    )


def test_resilience_guide_is_cross_linked():
    """The guide is discoverable and the promised DESIGN.md §19
    (supervision + chaos) exists."""
    for referrer in (
        ROOT / "README.md",
        ROOT / "docs" / "CAMPAIGN.md",
        ROOT / "docs" / "INCREMENTAL.md",
    ):
        assert "RESILIENCE.md" in referrer.read_text(encoding="utf-8"), (
            f"{referrer.name} does not link to docs/RESILIENCE.md"
        )
    assert "## 19." in (ROOT / "DESIGN.md").read_text(encoding="utf-8")


def test_chaos_smoke_job_exists_in_ci():
    """The chaos harness the guide promises CI runs is actually wired."""
    ci = ROOT / ".github" / "workflows" / "ci.yml"
    text = ci.read_text(encoding="utf-8")
    assert "chaos-smoke" in text
    assert "repro.robustness.chaos" in text


# ----------------------------------------------------------------------
# docs/INDEX.md — the architecture map


def index_text() -> str:
    return INDEX.read_text(encoding="utf-8")


def repro_packages() -> list[str]:
    """Every package directory under src/repro/."""
    return sorted(
        path.name
        for path in (ROOT / "src" / "repro").iterdir()
        if path.is_dir() and (path / "__init__.py").exists()
    )


def test_index_introspection_is_not_vacuous():
    assert len(repro_packages()) >= 10
    assert "stitch" in repro_packages()


@pytest.mark.parametrize(
    "guide", sorted(p.name for p in (ROOT / "docs").glob("*.md"))
)
def test_every_guide_appears_in_the_index(guide):
    assert guide in index_text(), (
        f"docs/{guide} is not mapped in docs/INDEX.md — every guide "
        "must appear in the index"
    )


@pytest.mark.parametrize("package", repro_packages())
def test_every_package_appears_in_the_index(package):
    assert f"src/repro/{package}/" in index_text(), (
        f"src/repro/{package}/ is not mapped in docs/INDEX.md — every "
        "package must appear in the architecture map"
    )


def test_index_is_linked_from_the_readme():
    assert "INDEX.md" in (ROOT / "README.md").read_text(encoding="utf-8")


# ----------------------------------------------------------------------
# Repo-wide stale-module-path sweep


def documented_module_paths() -> list[tuple[str, str]]:
    """Every `src/...py` mention across all guides + top-level docs."""
    sources = sorted((ROOT / "docs").glob("*.md"))
    sources.extend([ROOT / "DESIGN.md", ROOT / "ROADMAP.md"])
    mentions = set()
    for doc in sources:
        for path in re.findall(r"`(src/[\w/]+\.py)`",
                               doc.read_text(encoding="utf-8")):
            mentions.add((doc.name, path))
    return sorted(mentions)


def test_stale_path_sweep_is_not_vacuous():
    paths = {path for _, path in documented_module_paths()}
    assert "src/repro/memory/heap.py" in paths
    assert len(paths) >= 8


@pytest.mark.parametrize("doc, path", documented_module_paths())
def test_documented_module_path_exists(doc, path):
    assert (ROOT / path).exists(), (
        f"{doc} mentions {path}, which does not exist — stale module "
        "reference"
    )
