"""Exact pair correlation statistics and additive energy for integer
sequences, with interval-arithmetic probes of exceptional dilations.

The pieces, bottom up:

- :mod:`ppclab.intervals` — exact rational interval sets on [0, 1], stored
  as integer endpoints over one common denominator; Bohr sets,
  small-denominator neighborhoods, the Borel-Cantelli overlap ratio.
- :mod:`ppclab.growth` — slowly growing regularity functions, their
  admissibility clamps, series partial sums, predicted Hausdorff dimension.
- :mod:`ppclab.sequences` — the two-block (consecutive-run + shifted powers
  of two) construction with exact checkpoints, classic comparison families,
  and the sequence file format.
- :mod:`ppclab.energy` — exact additive energy of a whole grid of prefixes
  in one pass: where that pays, as on the paper's blocks, runs of
  consecutive elements are counted as trapezoids and the geometric families
  b + 2^i in closed form; otherwise every pair goes through one bounded
  numpy sort of residue keys, equal keys certified by the elements'
  positions or by their exact differences.  Brute-force and FFT oracles;
  representation counts; checkpoint scaling.
- :mod:`ppclab.paircorr` — the exact pair correlation statistic (rational
  and certified fixed-point dilations), regular systems of rational
  candidates, perturbation targeting, divergence probes, Monte Carlo.
- :mod:`ppclab.cli` — reproducible CSV-emitting experiments (``ppclab``).
"""

__version__ = "0.1.0"

from .intervals import (
    Interval,
    IntervalSet,
    bohr_set,
    borel_cantelli_ratio,
    read_interval_set,
    small_denominator_set,
    write_interval_set,
)
from .growth import (
    GrowthFunction,
    ThetaFunction,
    lower_order,
    parse_growth,
    parse_theta,
    predicted_hausdorff_dim,
    psi,
    series_partial_sum,
)
from .sequences import (
    BlockParams,
    BlockSequence,
    BudgetError,
    ClassicSequence,
    build_blocks,
    classic,
    load_sequence,
    max_element_bits,
    read_sequence,
    rebuild_from_meta,
    truncate,
    write_sequence,
)
from .energy import (
    RepCounts,
    additive_energy,
    additive_energy_bruteforce,
    additive_energy_convolution,
    ap_energy_closed_form,
    energy_scaling,
    rep_counts,
)
from .paircorr import (
    Alpha,
    PrecisionError,
    RegularSystemParams,
    divergence_probe,
    exceptional_alpha_candidates,
    frac_mult,
    is_probable_prime,
    monte_carlo_ppc,
    pair_correlation,
    pair_correlation_naive,
    pair_correlation_via_reps,
    perturbed_alpha,
    random_prime_alpha,
    rank_of_denominator,
    targeting_eta,
)

__all__ = [
    "__version__",
    "Interval",
    "IntervalSet",
    "bohr_set",
    "borel_cantelli_ratio",
    "read_interval_set",
    "small_denominator_set",
    "write_interval_set",
    "GrowthFunction",
    "ThetaFunction",
    "lower_order",
    "parse_growth",
    "parse_theta",
    "predicted_hausdorff_dim",
    "psi",
    "series_partial_sum",
    "BlockParams",
    "BlockSequence",
    "BudgetError",
    "ClassicSequence",
    "build_blocks",
    "classic",
    "load_sequence",
    "max_element_bits",
    "read_sequence",
    "rebuild_from_meta",
    "truncate",
    "write_sequence",
    "RepCounts",
    "additive_energy",
    "additive_energy_bruteforce",
    "additive_energy_convolution",
    "ap_energy_closed_form",
    "energy_scaling",
    "rep_counts",
    "Alpha",
    "PrecisionError",
    "RegularSystemParams",
    "divergence_probe",
    "exceptional_alpha_candidates",
    "frac_mult",
    "is_probable_prime",
    "monte_carlo_ppc",
    "pair_correlation",
    "pair_correlation_naive",
    "pair_correlation_via_reps",
    "perturbed_alpha",
    "random_prime_alpha",
    "rank_of_denominator",
    "targeting_eta",
]
