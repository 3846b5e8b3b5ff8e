"""Command-line front end.

Subcommands: construct, analyze, verify, decode, bounds, simulate.
Exit codes: 0 success, 1 internal error, a failed ``verify`` check or a
``decode`` whose baseline and memoized decoders disagree, 2 invalid input or
config.
Every run prints its resolved configuration (seeds, tolerances) so results
can be reproduced from the console transcript alone.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import codes, sim, structure
from .decoder import PamConstellation, em_count_bounds, qrdm_bound
from .structure import BlockOrthogonalProfile

_USER_ERRORS = (ValueError, OSError)


def _load_code_arg(spec: str, ordering: str | None = None):
    """A code argument is either a shipped code name or a JSON file path;
    ``ordering`` (indices or labels, comma-separated) reorders its symbols."""
    code = codes.load_code(spec) if spec.endswith(".json") else codes.named_code(spec)
    if ordering:
        code = codes.reorder(code, _parse_ordering(code, ordering))
    return code


def _parse_profile(text: str) -> BlockOrthogonalProfile:
    parts = [int(x) for x in text.replace(",", " ").split()]
    if len(parts) != 3:
        raise ValueError("profile must be three integers, e.g. 2,4,1")
    return BlockOrthogonalProfile(*parts)


def _parse_ordering(code, text: str):
    items = [x.strip() for x in text.split(",") if x.strip()]
    if all(item.lstrip("-").isdigit() for item in items):
        return tuple(int(x) for x in items)
    return codes.ordering_from_labels(code, items)


def _seed(text: str) -> int:
    """``--seed``: a non-negative integer, checked before any output."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}")
    return int(text)


def _channel_count(text: str) -> int:
    """``--channels``: an integer from 1 to ``structure._MAX_CHANNELS``,
    checked before any output."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    if int(text) > structure._MAX_CHANNELS:
        raise argparse.ArgumentTypeError(
            f"must be at most {structure._MAX_CHANNELS}, got {text!r}")
    return int(text)


def _check_out(path: str | None) -> None:
    """Fail unless ``path`` (if given) can be written, before any work, so
    a bad path exits 2 with no output.  The check leaves no trace: an
    existing file is opened without truncation, and a file the probe
    creates is removed, so a run that fails later leaves the path as it
    was."""
    if path:
        try:
            os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
        except FileExistsError:
            os.close(os.open(path, os.O_WRONLY))
        else:
            os.unlink(path)


def _pattern_grid(pattern) -> str:
    return "\n".join(" ".join("t" if x else "0" for x in row) for row in pattern)


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=1))
    else:
        print(text)


def cmd_construct(args) -> int:
    code = codes.named_code(args.name, args.m)
    codes.save_code(code, args.out)
    print(f"wrote {args.out}: n_t={code.n_t} t={code.t} K={code.k_real} "
          f"declared_profile={code.declared_profile}")
    return 0


def cmd_analyze(args) -> int:
    code = _load_code_arg(args.code, args.ordering)
    pattern = structure.structural_pattern(
        code, n_channels=args.channels, tol_rel=args.tol, seed=args.seed)
    print(f"config: channels={args.channels} seed={args.seed} tol_rel={args.tol}")
    report = structure.classify(pattern)
    profile = report.profile.as_tuple() if report.profile else None
    text = _pattern_grid(pattern)
    if profile:
        text += f"\nprofile: {profile}"
    elif report.classification in ("multi-group", "fast-group"):
        text += f"\n{report.classification} with g = {report.group_count}"
    else:
        text += "\nno block-orthogonal structure"
    text += f"\nclassification: {report.classification}"
    payload = report.to_json() | {"tol": args.tol, "seeds": [args.seed],
                                  "pattern": pattern.tolist()}
    _emit(args, payload, text)
    return 0


def cmd_verify(args) -> int:
    code = _load_code_arg(args.code, args.ordering)
    profile = None
    if args.profile:
        profile = _parse_profile(args.profile)
        if profile.total != code.k_real:
            raise ValueError(f"--profile {args.profile} covers {profile.total} "
                             f"symbols, {args.code} has {code.k_real}")
    elif code.declared_profile:
        profile = BlockOrthogonalProfile(*code.declared_profile)
    if profile is None and not args.construction_i:
        raise ValueError("nothing to verify: give --profile or --construction-i")
    results = {}
    if args.construction_i:
        rep = structure.verify_cuwd_sum_structure(
            code, n_channels=args.channels, seed=args.seed)
        results["construction_i"] = asdict(rep) | {"pass": rep.passes()}
    if profile is not None:
        rep = structure.verify_multi_block_premises(
            code, profile, n_channels=args.channels, seed=args.seed)
        results["premises"] = {
            "profile": profile.as_tuple(),
            "conditions": [c.to_json() for c in rep.conditions],
            "pass": rep.all_pass,
        }
    # after the checks, so input they refuse prints nothing
    print(f"config: channels={args.channels} seed={args.seed}")
    lines = []
    for section, body in results.items():
        lines.append(f"[{section}] pass={body['pass']}")
        lines += [f"  {key}: {value}" for key, value in body.items() if key != "pass"]
    _emit(args, results, "\n".join(lines))
    return 0 if all(body["pass"] for body in results.values()) else 1


def cmd_decode(args) -> int:
    code = _load_code_arg(args.code)
    cons = PamConstellation(args.m)
    profile = sim.resolve_profile(code)
    _check_out(args.trace)
    trace = [] if args.trace else None
    trial = sim.run_trial(code, cons, args.snr,
                          np.random.SeedSequence(args.seed), profile,
                          trace=trace)
    print(f"config: code={args.code} m={args.m} snr={args.snr} "
          f"seed={args.seed} profile={profile.as_tuple()}")
    if args.trace:
        with open(args.trace, "w") as out:
            out.writelines(json.dumps(record) + "\n" for record in trace)
        print(f"wrote {len(trace)} trace records to {args.trace}")
    payload = {
        "transmitted": list(trial.transmitted),
        "baseline": trial.stats_baseline.__dict__ | {
            "decoded": list(trial.stats_baseline.decoded)},
        "memoized": trial.stats_memoized.__dict__ | {
            "decoded": list(trial.stats_memoized.decoded)},
    }
    text = (f"transmitted {trial.transmitted}\n"
            f"baseline  decoded={trial.stats_baseline.decoded} "
            f"em={trial.stats_baseline.em_evaluations} "
            f"flops={trial.stats_baseline.flops}\n"
            f"memoized  decoded={trial.stats_memoized.decoded} "
            f"em={trial.stats_memoized.em_evaluations} "
            f"flops={trial.stats_memoized.flops} "
            f"cache_hits={trial.stats_memoized.cache_hits}")
    _emit(args, payload, text)
    # the paper's invariant: caching never changes the decoded symbols
    return int(trial.stats_baseline.decoded != trial.stats_memoized.decoded)


def _printable_bounds(profile: BlockOrthogonalProfile, m: int):
    """``em_count_bounds(profile, m)``, refused with ``ValueError`` when
    ``o_stbc``, the largest count ``bounds`` prints, has more digits than
    Python converts to text.  ``o_stbc`` exceeds ``m ** depth``, so a depth
    far past the limit is refused before any power is formed."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    depth = profile.total - profile.block_size
    if not limit or depth * math.log10(m) < limit + 1:
        b = em_count_bounds(profile, m)
        if not limit or b.o_stbc < 10 ** limit:
            return b
    raise ValueError(f"o_stbc for profile {profile.as_tuple()} at m={m} has "
                     f"more than {limit} digits, more than Python prints "
                     f"(sys.get_int_max_str_digits)")


def cmd_bounds(args) -> int:
    PamConstellation(args.m)  # the PAM sizes decode and campaigns take
    profile = _parse_profile(args.profile)
    b = _printable_bounds(profile, args.m)
    q = qrdm_bound(profile.k, profile.gamma, args.m)
    payload = {
        "profile": profile.as_tuple(),
        "m": args.m,
        "o_stbc": b.o_stbc,
        "o_bostbc": b.o_bostbc,
        "emrr": [b.emrr.numerator, b.emrr.denominator],
        "mem_entries": b.mem_entries,
        "qrdm_bound": [q.numerator, q.denominator],
    }
    text = (f"profile {profile.as_tuple()} m={args.m}\n"
            f"o_stbc       {b.o_stbc}\n"
            f"o_bostbc     {b.o_bostbc}\n"
            f"emrr         {b.emrr} = {float(b.emrr):.6g}\n"
            f"mem_entries  {b.mem_entries}\n"
            f"qrdm_bound   {q} = {float(q):.6g}")
    _emit(args, payload, text)
    return 0


def cmd_simulate(args) -> int:
    with open(args.campaign) as f:
        campaign = sim.SimulationCampaign.from_json(
            codes._json_text(f.read(), "campaign"))
    _check_out(args.out)
    result = sim.run_sweep(campaign)
    # after the sweep, so a campaign it refuses prints nothing
    print(f"config: {json.dumps(campaign.to_json())}")
    if not args.out:
        sys.stdout.write(sim.sweep_to_csv(result))
        return 0
    with open(args.out, "w", newline="") as out:
        out.write(sim.sweep_to_csv(result))
    print(f"wrote {args.out} ({len(result.rows)} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bostbc",
        description="Block-orthogonal STBC construction, analysis and decoding",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # flags defined once and shared through argparse parents
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=["text", "json"], default="text")
    sampled = argparse.ArgumentParser(add_help=False)
    sampled.add_argument("code", help="shipped code name or code JSON file")
    sampled.add_argument("--ordering", help="comma-separated indices or labels")
    sampled.add_argument("--channels", type=_channel_count,
                         default=structure.DEFAULT_PATTERN_CHANNELS)
    sampled.add_argument("--seed", type=_seed, default=structure.DEFAULT_SEED)

    p = sub.add_parser("construct", help="build a code and write it as JSON")
    p.add_argument("name", choices=codes.CODE_NAMES)
    p.add_argument("--m", help="companion matrix of a ci/ciii/civ sum code "
                               "(identity, bhv, golden, sr, a2)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("analyze", parents=[sampled, fmt],
                       help="print the structural R pattern and profile")
    p.add_argument("--tol", type=float, default=structure.DEFAULT_TOL_REL)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", parents=[sampled, fmt],
                       help="run the structural premise verifiers")
    p.add_argument("--profile", help="Gamma,k,gamma to verify (default: declared)")
    p.add_argument("--construction-i", action="store_true",
                   help="also check the sum-construction R1/E/R2 structure")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decode", parents=[fmt], help="run one paired decode trial")
    p.add_argument("code")
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--snr", type=float, default=10.0)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--trace", help="write per-node JSONL records here")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("bounds", parents=[fmt],
                       help="closed-form EM/memory/QRDM bounds")
    p.add_argument("--profile", required=True, help="Gamma,k,gamma")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("simulate", help="run a campaign JSON and emit CSV")
    p.add_argument("campaign")
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
