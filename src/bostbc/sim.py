"""Seeded Monte Carlo harness for paired decoder-complexity measurements.

Every trial draws one quasi-static Rayleigh channel, one random codeword and
one noise realization, then runs the baseline and memoized decoders on the
identical instance, so the metric-reduction ratio is a paired statistic.
Per-trial seeds derive deterministically from (master seed, SNR index,
trial index); results are the same however trials are scheduled.

SNR convention: signal-to-noise per receive antenna per channel use, with
the average received energy computed from the code's generator and the
constellation, i.e. ``N0 = E_rx / 10^(snr_db / 10)``.  Channel entries are
unit-variance complex Gaussian; the Gaussian sampler is numpy's PCG64
``standard_normal``, recorded in the campaign metadata; a campaign's
``rng`` key, when given, must name exactly that generator.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import MISSING, astuple, dataclass, fields

import numpy as np

from . import codes as _codes
from .codes import _json_array, _json_integer, _json_number, _json_object
from .decoder import DecoderStats, PamConstellation, prepare, sphere_decode
from .linalg import gram_schmidt_qr
from .structure import (
    BlockOrthogonalProfile,
    _receive_antennas,
    detect_structure,
    equivalent_channel,
    random_channel,
)

__all__ = [
    "SimulationCampaign",
    "SweepRow",
    "SweepResult",
    "TrialResult",
    "snr_to_noise_variance",
    "run_trial",
    "run_sweep",
    "sweep_to_csv",
    "CSV_HEADER",
    "resolve_profile",
]

RNG_ALGORITHM = "numpy-PCG64/standard_normal"


@dataclass(frozen=True)
class SimulationCampaign:
    """Config for one sweep; see ``schemas/campaign.schema.json``.  However
    it is built, each field meets the schema's rules and is stored
    normalised (integral floats as ``int``, arrays as tuples)."""

    code: str
    m: int
    snr_grid_db: tuple
    trials_per_point: int
    master_seed: int
    ordering: tuple | None = None
    n_r: int | None = None

    def __post_init__(self):
        if type(self.code) is not str:
            raise ValueError(f"code = {self.code!r} must be a string")
        for name in ("m", "trials_per_point", "master_seed"):
            object.__setattr__(self, name, _json_integer(getattr(self, name), name))
        if self.n_r is not None:
            object.__setattr__(self, "n_r", _json_integer(self.n_r, "n_r"))
        object.__setattr__(self, "snr_grid_db", _json_array(
            self.snr_grid_db, "snr_grid_db", _json_number, "numbers"))
        if self.ordering is not None:
            object.__setattr__(self, "ordering", _json_array(
                self.ordering, "ordering", _json_integer, "integers"))
        try:
            PamConstellation(self.m)
        except ValueError as exc:
            raise ValueError(f"m = {self.m!r}: {exc}") from None
        if self.trials_per_point < 1:
            raise ValueError("trials_per_point must be >= 1")
        if self.master_seed < 0:
            raise ValueError(f"master_seed = {self.master_seed} must be >= 0")
        grid = self.snr_grid_db
        if not grid:
            raise ValueError("snr_grid_db must hold at least one SNR")
        for i, snr in enumerate(grid):
            if not math.isfinite(snr):
                raise ValueError(f"snr_grid_db[{i}] = {snr} must be finite")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("snr grid must be strictly increasing")
        _receive_antennas(self.n_r)

    @classmethod
    def from_json(cls, data) -> "SimulationCampaign":
        """The campaign of a JSON object whose keys are the field names and
        an optional ``rng``; an unknown or missing key raises ``ValueError``."""
        _json_object(data, "campaign",
                     [f.name for f in fields(cls) if f.default is MISSING],
                     [f.name for f in fields(cls)] + ["rng"])
        rng = data.get("rng", RNG_ALGORITHM)
        if rng != RNG_ALGORITHM:
            raise ValueError(f"rng = {rng!r} must be {RNG_ALGORITHM!r}, "
                             "the only generator the sweep runs")
        return cls(**{k: v for k, v in data.items() if k != "rng"})

    def to_json(self) -> dict:
        """The JSON object :meth:`from_json` reads back, with its ``rng``."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {name: list(v) if type(v) is tuple else v
                for name, v in values.items()} | {"rng": RNG_ALGORITHM}


@dataclass(frozen=True)
class TrialResult:
    stats_baseline: DecoderStats
    stats_memoized: DecoderStats
    transmitted: tuple


@dataclass(frozen=True)
class SweepRow:
    snr_db: float
    trials: int
    mean_em_baseline: float
    mean_em_memoized: float
    emrr: float
    mean_flops_baseline: float
    mean_flops_memoized: float
    flop_reduction_pct: float
    seed: int


CSV_HEADER = ",".join(f.name for f in fields(SweepRow))


@dataclass(frozen=True)
class SweepResult:
    campaign: SimulationCampaign
    rows: tuple


def snr_to_noise_variance(snr_db: float, code, cons: PamConstellation) -> float:
    """Noise variance N0 for a target per-receive-antenna SNR.

    The average received signal energy per receive antenna per channel use
    is ``E[x_i^2] * ||G||_F^2 / t`` for unit-variance channel entries;
    dividing by the linear SNR gives N0.  A unit-energy code at 0 dB gives
    N0 = 1.  An SNR whose N0 is not a finite non-negative number (NaN, or
    so low or high that the linear SNR under- or overflows) raises
    ``ValueError``, and so does an ``snr_db`` that is not a real number
    (a string, ``None``, a complex or a ``bool``).
    """
    if type(snr_db) is bool or not isinstance(snr_db, numbers.Real):
        raise ValueError(f"snr_db = {snr_db!r} must be a real number")
    g = _codes.generator_matrix(code)
    e_rx = cons.energy_per_symbol * float((g * g).sum()) / code.t
    try:
        n0 = e_rx / (10.0 ** (snr_db / 10.0))
    except (OverflowError, ZeroDivisionError):
        n0 = math.nan
    if not 0.0 <= n0 < math.inf:
        raise ValueError(f"snr_db = {snr_db} gives no finite noise variance")
    return n0


def resolve_profile(code, *, n_r=None) -> BlockOrthogonalProfile:
    """Profile used for memoized decoding: the declared one, else detected."""
    _receive_antennas(n_r)
    if code.declared_profile is not None:
        return BlockOrthogonalProfile(*code.declared_profile)
    report = detect_structure(code, n_r=n_r)
    if report.profile is None:
        raise ValueError("code has no block-orthogonal structure to exploit")
    return report.profile


def run_trial(code, cons: PamConstellation, snr_db: float, seed,
              profile: BlockOrthogonalProfile, n_r: int | None = None,
              trace=None) -> TrialResult:
    """One paired trial: identical channel/codeword/noise for both decoders.

    Draw order is fixed (channel, then symbols, then noise) so a seed pins
    the whole instance bit-for-bit.  ``(R, y')`` is set up once, with
    :func:`decoder.prepare`, and both decodes share it.  ``trace``, when
    given, collects the memoized decoder's per-node records.
    """
    n_r = _receive_antennas(n_r, code.n_t)
    rng = np.random.Generator(np.random.PCG64(seed))
    h = random_channel(n_r, code.n_t, rng)
    sym_idx = rng.integers(0, cons.m, size=code.k_real)
    x = np.asarray(cons.levels, dtype=float)[sym_idx]
    n0 = snr_to_noise_variance(snr_db, code, cons)
    # the real, then the imaginary noise parts, drawn as one array and
    # scaled in tilde_vec(cvec()) order
    z = rng.standard_normal((2, n_r, code.t))
    noise = math.sqrt(n0 / 2.0) * z.T.ravel()

    h_eq = equivalent_channel(code, h)
    y = h_eq @ x + noise
    qr = gram_schmidt_qr(h_eq)
    y_prime = qr.q.T @ y

    inst = prepare(qr.r, y_prime, cons, profile)
    _, base = sphere_decode(qr.r, y_prime, cons, profile, memoize=False,
                            prepared=inst)
    _, memo = sphere_decode(qr.r, y_prime, cons, profile, memoize=True,
                            trace=trace, prepared=inst)
    return TrialResult(stats_baseline=base, stats_memoized=memo,
                       transmitted=tuple(sym_idx.tolist()))


def run_sweep(campaign: SimulationCampaign) -> SweepResult:
    """Run the campaign and aggregate per-SNR means.

    Trials fold in ascending (snr index, trial index) order; per-trial seeds
    are ``SeedSequence([master_seed, snr_index, trial_index])``, so the
    result is identical however the work is scheduled.  A trial whose
    baseline and memoized decoders disagree breaks the decoder's invariant
    and raises ``AssertionError`` naming its
    ``(master_seed, snr_index, trial_index)``.
    """
    code = _codes.named_code(campaign.code)
    if campaign.ordering is not None:
        code = _codes.reorder(code, campaign.ordering)
    cons = PamConstellation(campaign.m)
    profile = resolve_profile(code, n_r=campaign.n_r)
    rows = []
    for si, snr_db in enumerate(campaign.snr_grid_db):
        em_b = em_m = flops_b = flops_m = 0
        for ti in range(campaign.trials_per_point):
            seed = np.random.SeedSequence([campaign.master_seed, si, ti])
            trial = run_trial(code, cons, snr_db, seed, profile, n_r=campaign.n_r)
            if trial.stats_baseline.decoded != trial.stats_memoized.decoded:
                raise AssertionError(
                    "baseline and memoized decoders disagree at trial "
                    f"{(campaign.master_seed, si, ti)}")
            em_b += trial.stats_baseline.em_evaluations
            em_m += trial.stats_memoized.em_evaluations
            flops_b += trial.stats_baseline.flops
            flops_m += trial.stats_memoized.flops
        n = campaign.trials_per_point
        mean_eb = em_b / n
        mean_em = em_m / n
        mean_fb = flops_b / n
        mean_fm = flops_m / n
        rows.append(SweepRow(
            snr_db=snr_db,
            trials=n,
            mean_em_baseline=mean_eb,
            mean_em_memoized=mean_em,
            emrr=mean_em / mean_eb,
            mean_flops_baseline=mean_fb,
            mean_flops_memoized=mean_fm,
            flop_reduction_pct=100.0 * (1.0 - mean_fm / mean_fb),
            seed=campaign.master_seed,
        ))
    return SweepResult(campaign=campaign, rows=tuple(rows))


def sweep_to_csv(result: SweepResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    writer.writerows(astuple(row) for row in result.rows)
    return buf.getvalue()
