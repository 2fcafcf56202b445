"""Regression pins for the headline accuracy numbers.

Everything in the harness is seeded, so the Table III numbers are exact
constants; these tests pin them with a small tolerance band so honest
refactors (that should not change behaviour) are distinguishable from
accidental accuracy regressions.  If a deliberate calibration change
moves the numbers, rerun ``benchmarks/bench_table3_accuracy.py`` (it
prints the full Table III) and update the pins from its output.
"""

import pytest

from repro.eval import EvalConfig, evaluate_system

#: (dataset, system) -> (kw %, fq %), as benchmarks/bench_table3_accuracy.py
#: reports them.
PINS = {
    ("mas", "Pipeline"): (32.5, 29.4),
    ("mas", "Pipeline+"): (94.3, 78.9),
    ("yelp", "Pipeline"): (71.7, 60.6),
    ("yelp", "Pipeline+"): (84.3, 84.3),
    ("imdb", "Pipeline"): (39.8, 33.6),
    ("imdb", "Pipeline+"): (92.2, 71.9),
}

TOLERANCE = 2.0  # points


@pytest.mark.slow
@pytest.mark.parametrize("dataset_name,system", sorted(PINS))
def test_pinned_accuracy(dataset_name, system, mas_dataset, yelp_dataset,
                         imdb_dataset):
    dataset = {
        "mas": mas_dataset, "yelp": yelp_dataset, "imdb": imdb_dataset
    }[dataset_name]
    result = evaluate_system(dataset, system, EvalConfig())
    kw = 100.0 * result.kw_accuracy
    fq = 100.0 * result.fq_accuracy
    pin_kw, pin_fq = PINS[(dataset_name, system)]
    assert kw == pytest.approx(pin_kw, abs=TOLERANCE), (
        f"{dataset_name}/{system} KW drifted: {kw:.1f} vs pinned {pin_kw}"
    )
    assert fq == pytest.approx(pin_fq, abs=TOLERANCE), (
        f"{dataset_name}/{system} FQ drifted: {fq:.1f} vs pinned {pin_fq}"
    )


@pytest.mark.slow
def test_augmentation_factor_headline(mas_dataset):
    """The paper's headline: up to 138% top-1 improvement.  Ours exceeds
    2x on MAS; a drop below 2x signals a calibration regression."""
    baseline = evaluate_system(mas_dataset, "Pipeline", EvalConfig())
    augmented = evaluate_system(mas_dataset, "Pipeline+", EvalConfig())
    assert augmented.fq_accuracy / baseline.fq_accuracy > 2.0
