"""Deterministic stitched-corpus generation under budget knobs.

The builder is a pure function of a :class:`StitchBudget`:

1. take the first ``fragments`` specs of the sequence corpus (the
   curated interesting sequences, then the generated producer/consumer
   pairs) and derive path templates for each at the
   ``paths_per_fragment`` exploration budget;
2. compute the fragment-level compatibility relation — fragments
   *i → j* when some clean template of *i* satisfies some template of
   *j* through the solver (:mod:`repro.stitch.compat`), first witness
   short-circuits;
3. enumerate chains up to ``depth`` fragments, rank them by a
   template-derived relevance score, and emit the top
   ``max_methods`` as :class:`StitchedMethodSpec`s (chains that break
   a sequence restriction — mixed literal frames — are skipped and
   counted).

Determinism is the whole point: byte-identical campaign output across
``-j1`` / ``-jN`` / ``--resume`` requires parent and every worker to
derive the *same* plan from the same config, so nothing here may
depend on wall-clock, hashing order or process identity.  The corpus
is memoized per budget; pool workers are forked, so they inherit the
parent's memo and skip re-derivation entirely.

Derivation always runs with the mutation registry **suspended**
(:func:`repro.mutation.registry.suspended`): the corpus is a test
asset, the mutant is the system under test.  Deriving fragments under
mutated interpreter semantics would make the baseline and the mutated
campaign run *different plans*, which would turn the recall sweep's
fingerprint delta into a plan diff instead of a detection signal.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import perf
from repro.errors import BytecodeError
from repro.stitch.compat import compatible, reads_entry_state
from repro.stitch.spec import StitchedMethodSpec, stitched_spec
from repro.stitch.templates import derive_templates


@dataclass(frozen=True)
class StitchBudget:
    """The stitched-corpus budget knobs (CLI: ``--stitch-*``)."""

    #: How many fragment specs enter template derivation (prefix of the
    #: sequence corpus: interesting sequences first, then pairs).
    fragments: int = 12
    #: Cap on emitted stitched methods.
    max_methods: int = 24
    #: Fragments per stitched method (2 = pairs, 3 adds triples).
    depth: int = 2
    #: Concolic path budget per fragment during template derivation.
    paths_per_fragment: int = 8

    @classmethod
    def from_config(cls, config) -> "StitchBudget":
        return cls(
            fragments=config.stitch_fragments,
            max_methods=config.stitch_max_methods,
            depth=config.stitch_depth,
            paths_per_fragment=config.stitch_paths_per_fragment,
        )


@dataclass(frozen=True)
class StitchReport:
    """Deterministic provenance of one corpus derivation."""

    budget: StitchBudget
    fragment_names: tuple
    #: Per fragment (aligned with ``fragment_names``): template count
    #: and clean-handoff count.
    template_counts: tuple
    clean_counts: tuple
    #: Compatible (prefix_name, suffix_name) fragment pairs.
    compatible_pairs: tuple
    #: Emitted stitched-method names, in corpus order.
    emitted: tuple
    #: Candidate chains dropped for breaking a sequence restriction.
    skipped_invalid: int
    #: True when the ``max_methods`` cap cut candidates.
    truncated: bool


#: budget -> (specs tuple, StitchReport); forked workers inherit this.
_MEMO: dict = {}


def clear_corpus_memo() -> None:
    """Testing hook: force fresh derivation."""
    _MEMO.clear()


def build_stitched_corpus(budget: StitchBudget | None = None) -> tuple:
    """``(specs, report)`` for *budget*, memoized per process."""
    budget = budget or StitchBudget()
    cached = _MEMO.get(budget)
    if cached is not None:
        perf.incr("stitch.corpus_memo_hits")
        return cached
    from repro.mutation.registry import suspended

    with suspended():
        result = _build(budget)
    _MEMO[budget] = result
    return result


def _fragment_specs(budget: StitchBudget) -> list:
    from repro.concolic.sequences import (
        generate_pair_sequences,
        interesting_sequences,
    )

    specs = interesting_sequences() + generate_pair_sequences()
    return specs[: max(0, budget.fragments)]


def _score(prefix_spec, prefix_templates, suffix_templates) -> int:
    """Template-derived relevance of a (prefix, suffix) stitch.

    Jump-carrying prefixes force a parse-time flush at the fragment
    boundary, prefixes with leftover stack feed real values across it,
    and suffixes whose path conditions read entry state engage the
    handoff — exactly the cross-fragment mechanics single fragments
    cannot exercise.
    """
    score = 0
    if any("Jump" in bc.name for bc, _ in prefix_spec.sequence):
        score += 2
    if any(t.clean and t.out_stack for t in prefix_templates):
        score += 1
    if any(reads_entry_state(t) for t in suffix_templates):
        score += 1
    return score


def _build(budget: StitchBudget) -> tuple:
    specs = _fragment_specs(budget)
    perf.incr("stitch.fragments", len(specs))
    iterations = max(16, 4 * budget.paths_per_fragment)
    templates = [
        derive_templates(
            spec,
            max_paths=budget.paths_per_fragment,
            max_iterations=iterations,
        )
        for spec in specs
    ]

    # Fragment-level compatibility: first template witness wins.
    memo: dict = {}
    compat: set = set()
    for i, prefix_templates in enumerate(templates):
        cleans = [t for t in prefix_templates if t.clean]
        if not cleans:
            continue
        for j, suffix_templates in enumerate(templates):
            if any(
                compatible(a, b, b.model.context, memo=memo)
                for a in cleans
                for b in suffix_templates
            ):
                compat.add((i, j))

    # Chains up to the depth knob, ranked by relevance then position.
    scores = {
        (i, j): _score(specs[i], templates[i], templates[j])
        for (i, j) in compat
    }
    chains = [(i, j) for (i, j) in sorted(compat)]
    if budget.depth >= 3:
        chains += [
            (i, j, k)
            for (i, j) in sorted(compat)
            for k in range(len(specs))
            if (j, k) in compat
        ]
    chains.sort(key=lambda chain: (
        -sum(scores[pair] for pair in zip(chain, chain[1:])),
        len(chain),
        chain,
    ))

    emitted = []
    seen: set = set()
    skipped = 0
    truncated = False
    for chain in chains:
        if len(emitted) >= budget.max_methods:
            truncated = True
            break
        entries = tuple(
            entry for index in chain for entry in specs[index].sequence
        )
        try:
            spec = StitchedMethodSpec(
                entries,
                fragments=tuple(specs[index].name for index in chain),
            )
        except BytecodeError:
            skipped += 1
            continue
        if spec.name in seen:
            continue
        seen.add(spec.name)
        emitted.append(spec)
    perf.incr("stitch.emitted", len(emitted))

    report = StitchReport(
        budget=budget,
        fragment_names=tuple(spec.name for spec in specs),
        template_counts=tuple(len(t) for t in templates),
        clean_counts=tuple(
            sum(1 for template in t if template.clean) for t in templates
        ),
        compatible_pairs=tuple(
            (specs[i].name, specs[j].name) for (i, j) in sorted(compat)
        ),
        emitted=tuple(spec.name for spec in emitted),
        skipped_invalid=skipped,
        truncated=truncated,
    )
    return tuple(emitted), report


def format_stitch_report(report: StitchReport) -> str:
    """Deterministic text rendering for ``repro stitch``."""
    budget = report.budget
    lines = [
        "Stitched-method corpus (repro stitch)",
        (
            f"fragments: {len(report.fragment_names)} "
            f"(paths per fragment: {budget.paths_per_fragment})"
        ),
        (
            f"templates: {sum(report.template_counts)} "
            f"({sum(report.clean_counts)} clean handoffs)"
        ),
        (
            f"compatible fragment pairs: {len(report.compatible_pairs)}"
        ),
        (
            f"emitted: {len(report.emitted)} stitched methods "
            f"(cap {budget.max_methods}, depth {budget.depth}, "
            f"{report.skipped_invalid} skipped invalid"
            + (", truncated" if report.truncated else "")
            + ")"
        ),
    ]
    for name in report.emitted:
        lines.append(f"  {name}")
    return "\n".join(lines)
