"""Per-layer metrics computed from the spans of a traced run.

Times are averaged per paired trial over every traced sweep; each sweep's
spans are folded into :class:`SweepTotals` as soon as the sweep ends, so
only the first sweep's spans need to stay in memory.  Counters (EM, FLOPs,
nodes, cache hits) come from the first traced sweep alone: every sweep of
a campaign repeats them exactly, so they must not depend on how many
sweeps fitted in the run.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass

DECODE = "decoder.sphere_decode"


@dataclass
class LayerTotals:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


def _is_trial(span) -> bool:
    return span.key is not None and len(span.key) == 3


def decoder_sums(spans):
    """Per-variant sums of time and counters, and the largest cache peak."""
    sums = defaultdict(lambda: defaultdict(int))
    for span in spans:
        if span.name == DECODE and span.attrs:
            s = sums[span.attrs["variant"]]
            s["ns"] += span.duration_ns
            s["n"] += 1
            for k in ("em", "flops", "nodes", "hits"):
                s[k] += span.attrs[k]
            s["peak"] = max(s["peak"], span.attrs["peak"])
    return sums


class SweepTotals:
    """Layer times of traced sweeps, folded one sweep at a time."""

    def __init__(self):
        self.sweeps = 0
        self.in_trial = defaultdict(LayerTotals)  # spans inside run_trial
        self.run_sweep_self_ns = 0
        self.decode = defaultdict(lambda: defaultdict(int))

    def add(self, spans) -> None:
        self.sweeps += 1
        for span in spans:
            if _is_trial(span):
                t = self.in_trial[span.name]
                t.calls += 1
                t.total_ns += span.duration_ns
                t.self_ns += span.self_ns
            elif span.name == "sim.run_sweep":
                self.run_sweep_self_ns += span.self_ns
        for variant, s in decoder_sums(spans).items():
            self.decode[variant]["ns"] += s["ns"]
            self.decode[variant]["flops"] += s["flops"]


def _ns_per_flop(s) -> float:
    return s["ns"] / s["flops"] if s["flops"] else 0.0


def layer_metrics(totals: SweepTotals, *, setup, first_sweep, checks,
                  trials_per_sweep, m):
    """Per-layer metrics: ``{name: (value, unit)}`` and a per-span table.

    ``setup`` holds the spans of the traced set-up repetitions,
    ``first_sweep`` those of the first traced sweep and ``checks`` those of
    the plain and oracle decodes.
    """
    n = max(totals.sweeps * trials_per_sweep, 1)
    layer = totals.in_trial
    setup_roots = defaultdict(list)
    for span in setup:
        if span.parent is None:
            setup_roots[span.name].append(span.duration_ns)
    first = decoder_sums(first_sweep)
    plain = decoder_sums(checks)["plain"]
    n_plain = max(plain["n"], 1)
    memo = first["memoized"]

    def us(name, kind="total_ns"):
        return getattr(layer[name], kind) / 1e3 / n

    def count(variant, key):
        return first[variant][key] / trials_per_sweep

    def setup_ms(name):
        return statistics.median(setup_roots[name] or [0]) / 1e6

    base_us = totals.decode["baseline"]["ns"] / 1e3 / n
    memo_us = totals.decode["memoized"]["ns"] / 1e3 / n
    trial_ns = layer["sim.run_trial"].total_ns
    decode_ns = layer[DECODE].total_ns
    entries = memo["hits"] + memo["em"] / m  # conditioned level entries

    metrics = {
        "codes.named_code_ms": (setup_ms("codes.named_code"), "ms"),
        "sim.resolve_profile_ms": (setup_ms("sim.resolve_profile"), "ms"),
        "codes.generator_matrix_calls_per_trial": (
            layer["codes.generator_matrix"].calls / n, "count"),
        "codes.generator_matrix_us_per_trial": (
            us("codes.generator_matrix"), "us"),
        "sim.snr_to_noise_variance_self_us_per_trial": (
            us("sim.snr_to_noise_variance", "self_ns"), "us"),
        "structure.random_channel_us_per_trial": (
            us("structure.random_channel"), "us"),
        "structure.equivalent_channel_self_us_per_trial": (
            us("structure.equivalent_channel", "self_ns"), "us"),
        "linalg.gram_schmidt_qr_us_per_trial": (
            us("linalg.gram_schmidt_qr"), "us"),
        "sim.run_trial_self_us_per_trial": (
            us("sim.run_trial", "self_ns"), "us"),
        "sim.run_sweep_self_us_per_trial": (
            totals.run_sweep_self_ns / 1e3 / n, "us"),
        "sim.front_end_share": (
            (trial_ns - decode_ns) / trial_ns if trial_ns else 0.0, "ratio"),
        "decoder.baseline_us_per_trial": (base_us, "us"),
        "decoder.memoized_us_per_trial": (memo_us, "us"),
        "decoder.baseline_ns_per_flop": (
            _ns_per_flop(totals.decode["baseline"]), "ns"),
        "decoder.memoized_ns_per_flop": (
            _ns_per_flop(totals.decode["memoized"]), "ns"),
        "decoder.memoized_wall_cut_pct": (
            100.0 * (1.0 - memo_us / base_us) if base_us else 0.0, "%"),
        "decoder.memoized_cache_hits_per_trial": (count("memoized", "hits"), "count"),
        "decoder.memoized_cache_hit_ratio": (
            memo["hits"] / entries if entries else 0.0, "ratio"),
        "decoder.memoized_cache_peak_max": (memo["peak"], "count"),
        "decoder.baseline_em_per_trial": (count("baseline", "em"), "count"),
        "decoder.memoized_em_per_trial": (count("memoized", "em"), "count"),
        "decoder.baseline_flops_per_trial": (count("baseline", "flops"), "count"),
        "decoder.memoized_flops_per_trial": (count("memoized", "flops"), "count"),
        "decoder.baseline_nodes_per_trial": (count("baseline", "nodes"), "count"),
        "decoder.memoized_nodes_per_trial": (count("memoized", "nodes"), "count"),
        "decoder.plain_us_per_trial": (plain["ns"] / 1e3 / n_plain, "us"),
        "decoder.plain_flops_per_trial": (plain["flops"] / n_plain, "count"),
        "decoder.plain_nodes_per_trial": (plain["nodes"] / n_plain, "count"),
        "decoder.plain_ns_per_flop": (_ns_per_flop(plain), "ns"),
    }
    table = {name: {"calls_per_trial": t.calls / n,
                    "us_per_trial": t.total_ns / 1e3 / n,
                    "self_us_per_trial": t.self_ns / 1e3 / n}
             for name, t in sorted(layer.items())}
    return metrics, table
