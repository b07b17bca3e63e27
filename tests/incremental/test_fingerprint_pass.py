"""One fingerprint pass shares its work between cells, and nothing else.

:func:`plan_fingerprints` renders the knobs once, each spec's signature
once, resolves each name once and digests each root's closure once for
all the cells of a plan.  Every cell must still get exactly the
fingerprint :func:`cell_fingerprint` gives it alone, under the same
live patch state: for the main, sequence and stitched plans, with no
mutant and with each registry mutant active.  The shared work lives
only as long as the pass.
"""

from __future__ import annotations

import gc

import pytest

from repro.difftest.runner import (
    CampaignConfig,
    campaign_rows,
    sequence_campaign_rows,
    stitched_campaign_rows,
)
from repro.incremental import cell_fingerprint, plan_fingerprints
from repro.incremental import fingerprint
from repro.mutation import activated, registry
from repro.parallel.shard import plan_cells

CONFIG = CampaignConfig()

PLANS = {
    "main": campaign_rows,
    "sequences": sequence_campaign_rows,
    "stitched": stitched_campaign_rows,
}


@pytest.fixture(scope="module")
def plans():
    return {name: build(CONFIG) for name, build in PLANS.items()}


@pytest.mark.parametrize("mutant", (None,) + tuple(registry.all_ids()))
def test_pass_fingerprints_equal_cells_alone(plans, mutant):
    mutants = () if mutant is None else (mutant,)
    config = CampaignConfig(mutants=mutants)
    for name, rows in plans.items():
        fingerprints = plan_fingerprints(rows, config)
        cells = list(plan_cells(rows))
        assert set(fingerprints) == {cell.key for cell in cells}
        with activated(mutants):
            for cell in cells:
                row = rows[cell.row_index]
                alone = cell_fingerprint(row.specs[cell.spec_index],
                                         row.compiler_class, config)
                assert fingerprints[cell.key] == alone, (name, cell.key)


def test_no_pass_outlives_its_call(plans):
    plan_fingerprints(plans["main"], CONFIG)
    gc.collect()
    assert not [obj for obj in gc.get_objects()
                if isinstance(obj, fingerprint._Pass)]
