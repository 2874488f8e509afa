"""Reproducible command-line experiments over the library.

One experiment per invocation, driven either by subcommand flags or by a flat
``key = value`` config file (``ppclab run config.txt``).  Every tabular output
is an RFC-style CSV with a header row, accompanied by a JSON manifest carrying
the config hash, so identical config + seed reruns produce byte-identical
CSVs (manifests may differ in their timestamp only).

Exit codes: 0 success, 2 config error, 3 precondition error, 4 budget
refusal.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from typing import Callable, NoReturn, Sequence

from . import __version__
from .energy import (
    DEFAULT_MAX_PAIRS,
    BudgetError,
    _energies,
    check_pair_budget,
    energy_scaling,
)
from .growth import (
    GrowthFunction,
    parse_growth,
    parse_theta,
    predicted_hausdorff_dim,
    psi,
)
from .intervals import (
    _interval_text,
    _write_interval_text,
    bohr_set,
    borel_cantelli_ratio,
    read_interval_set,
)
from .paircorr import (
    Alpha,
    PrecisionError,
    RegularSystemParams,
    _candidate_at,
    divergence_probe,
    monte_carlo_ppc,
    pair_correlation,
    perturbed_alpha,
    rank_of_denominator,
    targeting_eta,
)
from .sequences import (
    BlockSequence,
    build_blocks,
    classic,
    load_sequence,
    truncate,
    write_sequence,
)

__all__ = ["main", "ConfigError"]


class ConfigError(Exception):
    """Bad flags or config file contents (exit code 2)."""


# -- token parsers -----------------------------------------------------------------


def _p_str(tok: str) -> str:
    return tok


def _p_int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ConfigError(f"not an integer: {tok!r}") from None


def _p_budget(tok: str) -> int:
    value = _p_int(tok)
    if value < 0:
        raise ConfigError(f"a budget cannot be negative: {tok!r}")
    return value


def _p_fraction(tok: str) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"not a fraction: {tok!r}") from None


def _p_float(tok: str) -> float:
    return float(_p_fraction(tok))


def _p_growth(tok: str):
    try:
        return parse_growth(tok)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _p_theta(tok: str):
    try:
        return parse_theta(tok)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _p_alpha(tok: str) -> Alpha:
    try:
        return Alpha.parse(tok)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad alpha {tok!r}: {exc}") from None


def _p_levels(tok: str) -> list[int]:
    """'8..13' (inclusive), '8,10,12', or '12'."""
    tok = tok.strip()
    if ".." in tok:
        lo_s, _, hi_s = tok.partition("..")
        lo, hi = _p_int(lo_s), _p_int(hi_s)
        if lo > hi:
            raise ConfigError(f"empty level range {tok!r}")
        return list(range(lo, hi + 1))
    return _p_int_list(tok)


def _p_int_list(tok: str) -> list[int]:
    vals = [_p_int(part) for part in tok.split(",") if part.strip()]
    if not vals:
        raise ConfigError(f"empty integer list: {tok!r}")
    return vals


def _p_frac_list(tok: str) -> list[Fraction]:
    vals = [_p_fraction(part) for part in tok.split(",") if part.strip()]
    if not vals:
        raise ConfigError(f"empty list: {tok!r}")
    return vals


def _p_paths(tok: str) -> list[str]:
    paths = tok.split()
    if not paths:
        raise ConfigError("empty path list")
    return paths


def _p_kv_tokens(tok: str) -> dict[str, str]:
    """'j=8 rank=0 target=13' -> {'j': '8', 'rank': '0', 'target': '13'}."""
    out: dict[str, str] = {}
    for piece in tok.split():
        key, eq, value = piece.partition("=")
        if not eq or not key or not value:
            raise ConfigError(f"expected key=value, got {piece!r}")
        if key in out:
            raise ConfigError(f"duplicate token {key!r}")
        out[key] = value
    return out


# -- experiment schema ---------------------------------------------------------------

# points one run may reduce to residue words: the default of mc.max_points,
# and the fixed cap of pc and probe on their longest prefix
MAX_POINTS = 50_000_000


@dataclass(frozen=True)
class Param:
    key: str  # flat config name, e.g. "seq.file"
    flag: str  # CLI flag, e.g. "--seq"
    parse: Callable[[str], object]
    required: bool = False
    default: str | None = None  # raw token, parsed like user input
    help: str = ""
    greedy: bool = False  # flag consumes the remaining tokens (joined)


_SEQ_PARAMS = [
    Param("seq.file", "--seq", _p_str, help="sequence file (decimal per line)"),
    Param("seq.family", "--family", _p_str,
          help="blocks | identity | power | primes | lacunary"),
    Param("seq.f", "--f", _p_growth, help="growth function, e.g. ilog(1)"),
    Param("seq.beta", "--beta", _p_float, help="block exponent beta"),
    Param("seq.gamma", "--gamma", _p_float, help="block exponent gamma"),
    Param("seq.jmax", "--jmax", _p_int, help="top block level"),
    Param("seq.n", "--seq-n", _p_int, help="length of a classic family"),
    Param("seq.param", "--seq-param", _p_int, help="classic family parameter"),
]

EXPERIMENTS: dict[str, list[Param]] = {
    "build-seq": [
        Param("seq.family", "--family", _p_str, default="blocks"),
        Param("seq.f", "--f", _p_growth),
        Param("seq.beta", "--beta", _p_float),
        Param("seq.gamma", "--gamma", _p_float),
        Param("seq.jmax", "--jmax", _p_int),
        Param("seq.n", "--seq-n", _p_int),
        Param("seq.param", "--seq-param", _p_int),
        Param("out.seq", "--out", _p_str, required=True),
    ],
    "energy": _SEQ_PARAMS + [
        Param("energy.n", "--n", _p_int, help="truncation (default: full length)"),
        Param("energy.max_pairs", "--max-pairs", _p_budget,
              default=str(DEFAULT_MAX_PAIRS)),
    ],
    "scaling": _SEQ_PARAMS + [
        Param("scaling.levels", "--levels", _p_levels,
              help="e.g. 8..13 (default: all levels with a nonempty run)"),
        Param("scaling.max_pairs", "--max-pairs", _p_budget,
              default=str(DEFAULT_MAX_PAIRS)),
        Param("out.csv", "--csv", _p_str, required=True),
    ],
    "pc": _SEQ_PARAMS + [
        Param("pc.alpha", "--alpha", _p_alpha, required=True),
        Param("pc.n", "--n", _p_int),
        Param("pc.s", "--s", _p_fraction, default="1"),
    ],
    "probe": _SEQ_PARAMS + [
        Param("probe.levels", "--levels", _p_levels, required=True),
        Param("probe.s", "--s", _p_fraction, default="1"),
        Param("probe.alpha", "--alpha", _p_alpha),
        Param("probe.system", "--alpha-from-regular-system", _p_kv_tokens,
              greedy=True,
              help="tokens: j=LEVEL rank=INDEX [target=LEVEL] [eta=FRACTION]"),
        Param("probe.theta", "--theta", _p_theta, default="one_plus_log"),
        Param("out.csv", "--csv", _p_str),
    ],
    "mc": _SEQ_PARAMS + [
        Param("mc.trials", "--trials", _p_int, required=True),
        Param("mc.schedule", "--schedule", _p_int_list, required=True),
        Param("mc.s", "--s", _p_frac_list, default="1"),
        Param("mc.seed", "--seed", _p_int, required=True),
        Param("mc.delta", "--delta", _p_float, default="0.5"),
        Param("mc.max_points", "--max-points", _p_budget, default=str(MAX_POINTS)),
        Param("out.csv", "--csv", _p_str, required=True),
    ],
    "bohr": [
        Param("bohr.d", "--d", _p_int, required=True),
        Param("bohr.delta", "--delta", _p_fraction, required=True),
        Param("out.intervals", "--out", _p_str),
    ],
    "bc-ratio": [
        Param("bc.sets", "--sets", _p_paths, required=True, greedy=True,
              help="interval-set files"),
    ],
    "corollary-table": [
        Param("table.r", "--r", _p_int, required=True),
        Param("table.jmax", "--jmax", _p_int, required=True),
        Param("table.beta", "--beta", _p_float, default="2/3"),
        Param("table.gamma", "--gamma", _p_float, default="1/3"),
        Param("table.eps", "--eps", _p_float, default="1"),
        Param("table.max_pairs", "--max-pairs", _p_budget,
              default=str(DEFAULT_MAX_PAIRS)),
        Param("out.csv", "--csv", _p_str, required=True),
    ],
}

# free-text note copied into manifests (config-file key only)
_NOTES_KEY = "notes"


def _parse_raw(name: str, raw: dict[str, str]) -> dict[str, object]:
    values: dict[str, object] = {}
    for p in EXPERIMENTS[name]:
        tok = raw.get(p.key, p.default)
        if tok is None:
            if p.required:
                raise ConfigError(f"experiment {name!r} requires {p.key} ({p.flag})")
            values[p.key] = None
        else:
            try:
                values[p.key] = p.parse(tok)
            except ConfigError as exc:
                raise ConfigError(f"{p.key}: {exc}") from None
    return values


def _canonical_text(name: str, raw: dict[str, str]) -> str:
    lines = [f"experiment = {name}"]
    for key in sorted(raw):
        lines.append(f"{key} = {raw[key]}")
    return "\n".join(lines) + "\n"


# -- manifest and CSV plumbing -------------------------------------------------------

# bytes hashed per read of an output file
_HASH_CHUNK = 1 << 20


@dataclass
class RunContext:
    experiment: str
    raw: dict[str, str]
    config_text: str
    config_sha256: str
    outputs: list[str]

    def write_text(self, path: str, text: str) -> None:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
        self.outputs.append(path)

    def write_csv(self, path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
        lines = [",".join(header)]
        lines.extend(",".join(str(cell) for cell in row) for row in rows)
        self.write_text(path, "\n".join(lines) + "\n")

    def finish(self, seed: int | None = None, notes: dict | None = None) -> None:
        """One manifest next to every output file."""
        all_notes = dict(notes or {})
        if _NOTES_KEY in self.raw:
            all_notes["user"] = self.raw[_NOTES_KEY]
        for path in self.outputs:
            digest, size = hashlib.sha256(), 0
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(_HASH_CHUNK), b""):
                    digest.update(chunk)
                    size += len(chunk)
            manifest = {
                "tool": "ppclab",
                "version": __version__,
                "experiment": self.experiment,
                "config_sha256": self.config_sha256,
                "config_text": self.config_text,
                "seed": seed,
                "output": {
                    "path": os.path.basename(path),
                    "sha256": digest.hexdigest(),
                    "bytes": size,
                },
                "all_outputs": [os.path.basename(p) for p in self.outputs],
                "notes": all_notes,
                "created": datetime.now(timezone.utc).isoformat(),
            }
            with open(path + ".manifest.json", "w", encoding="ascii") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
                fh.write("\n")


def _fmt_float(x: float) -> str:
    return repr(float(x))


# -- sequence resolution ---------------------------------------------------------------


_CLASSIC = ("identity", "power", "primes", "lacunary")


def _build_from_params(p: dict[str, object]):
    family = p.get("seq.family")
    if family == "blocks":
        for key in ("seq.f", "seq.beta", "seq.gamma", "seq.jmax"):
            if p.get(key) is None:
                raise ConfigError(f"family blocks requires {key}")
        return build_blocks(p["seq.f"], p["seq.beta"], p["seq.gamma"], p["seq.jmax"])
    if family in _CLASSIC:
        if p.get("seq.n") is None:
            raise ConfigError(f"family {family} requires seq.n (--seq-n)")
        return classic(family, p["seq.n"], p.get("seq.param") or 0)
    raise ConfigError(f"unknown sequence family {family!r}")


def _load_sequence(p: dict[str, object]):
    """A sequence from either a file or inline construction parameters."""
    path = p.get("seq.file")
    if path is not None and p.get("seq.family") is not None:
        raise ConfigError("give either seq.file or seq.family, not both")
    if path is None:
        if p.get("seq.family") is None:
            raise ConfigError("no sequence given (seq.file or seq.family)")
        return _build_from_params(p)
    return load_sequence(path)


def _require_blocks(seq, what: str) -> BlockSequence:
    if not isinstance(seq, BlockSequence):
        raise ValueError(
            f"{what} needs a block sequence (a file with block metadata, or "
            "seq.family = blocks)"
        )
    return seq


# -- experiment runners ------------------------------------------------------------------


def _run_build_seq(p: dict[str, object], ctx: RunContext) -> None:
    seq = _build_from_params(p)
    out = p["out.seq"]
    write_sequence(out, seq)
    ctx.outputs.append(out)
    print(f"wrote {out}: {len(seq)} elements")
    ctx.finish()


def _run_energy(p: dict[str, object], ctx: RunContext) -> None:
    # the size is known before any load from energy.n or a classic family's
    # seq.n: its elements alone can go over the budget
    n = p["energy.n"]
    if n is None and p.get("seq.file") is None and p.get("seq.family") in _CLASSIC:
        n = p.get("seq.n")
    if n is not None:
        check_pair_budget([n], p["energy.max_pairs"])
    seq = _load_sequence(p)
    if n is None:
        n = len(seq)
    elements = truncate(seq, n)
    if not elements:
        raise ValueError("need a nonempty set of integers")
    # the elements are strictly increasing (files and families ensure it),
    # and the pass charges its work before it forms a pair
    (value,), _ = _energies(elements, [n], p["energy.max_pairs"])
    print(f"n = {n}")
    print(f"E = {value}")
    ctx.finish()


def _run_scaling(p: dict[str, object], ctx: RunContext) -> None:
    seq = _require_blocks(_load_sequence(p), "scaling")
    levels = p["scaling.levels"]
    if levels is None:
        levels = [
            j for j in range(1, seq.params.j_max + 1) if seq.a_block(j).length > 0
        ]
        if not levels:
            raise ValueError("no level has a nonempty consecutive run")
    else:
        empty = [j for j in levels if seq.a_block(j).length == 0]
        if empty:
            raise ValueError(
                f"levels {empty} have an empty consecutive run; the normalized "
                "ratio is about the run-bearing checkpoints"
            )
    result = energy_scaling(seq, levels, max_pairs=p["scaling.max_pairs"])
    rows = [
        (r.level, r.n, r.energy, _fmt_float(r.f_n), _fmt_float(r.normalized))
        for r in result.rows
    ]
    ctx.write_csv(p["out.csv"], ["j", "N", "energy", "f(N)", "normalized"], rows)
    print(f"wrote {p['out.csv']}: {len(rows)} rows, spread = {result.spread:.4f}")
    ctx.finish(notes={"spread": result.spread, "energy_split": dict(result.split)})


def _check_points(points: int, what: str, cap: int = MAX_POINTS, key: str = "") -> None:
    """Refuse a run that would reduce more than ``cap`` points to residue
    words, before any is formed; ``key`` names the budget's setting."""
    if points > cap:
        named = f" ({key})" if key else ""
        raise BudgetError(f"about {points} {what} requested, over the budget of {cap}{named}")


def _run_pc(p: dict[str, object], ctx: RunContext) -> None:
    # the size is known before any load from pc.n or a classic family's seq.n
    n = p["pc.n"]
    if n is None and p.get("seq.file") is None and p.get("seq.family") in _CLASSIC:
        n = p.get("seq.n")
    if n is not None:
        _check_points(n, "residue words")
    seq = _load_sequence(p)
    if n is None:
        n = len(seq)
        _check_points(n, "residue words")
    r = pair_correlation(seq, p["pc.alpha"], n, p["pc.s"])
    print(f"alpha = {p['pc.alpha'].label()}")
    print(f"N = {n}, s = {p['pc.s']}")
    print(f"R = {r} ({float(r)!r})")
    ctx.finish()


def _probe_alpha(p: dict[str, object], seq: BlockSequence, system: RegularSystemParams,
                 levels: list[int], s: Fraction) -> tuple[Alpha, dict]:
    if (p["probe.alpha"] is None) == (p["probe.system"] is None):
        raise ConfigError("probe needs exactly one of probe.alpha / probe.system")
    if p["probe.alpha"] is not None:
        return p["probe.alpha"], {"alpha": p["probe.alpha"].label()}
    tokens = dict(p["probe.system"])
    try:
        j = _p_int(tokens.pop("j"))
        index = _p_int(tokens.pop("rank"))
    except KeyError as exc:
        raise ConfigError(f"probe.system needs token {exc}") from None
    if index < 0:
        raise ConfigError(f"probe.system rank must be >= 0, got {index}")
    target = _p_int(tokens.pop("target")) if "target" in tokens else max(levels)
    eta_tok = tokens.pop("eta", None)
    if tokens:
        raise ConfigError(f"unknown probe.system tokens: {sorted(tokens)}")
    cand = _candidate_at(system, j, index)
    rank = rank_of_denominator(cand.den)
    if eta_tok is not None:
        eta = _p_fraction(eta_tok)
    else:
        radius = Fraction(psi(system.f, system.theta, rank))
        eta = min(radius / 2, targeting_eta(seq, target, cand.den, s))
    alpha = perturbed_alpha(cand, system, rank=rank, eta=eta)
    notes = {
        "alpha": alpha.label(),
        "candidate": cand.label(),
        "system_level": j,
        "candidate_index": index,
        "rank": rank,
        "eta": str(eta),
        "target_level": target,
    }
    return alpha, notes


def _run_probe(p: dict[str, object], ctx: RunContext) -> None:
    seq = _require_blocks(_load_sequence(p), "probe")
    system = RegularSystemParams(f=seq.params.f, theta=p["probe.theta"])
    levels = p["probe.levels"]
    s = p["probe.s"]
    alpha, notes = _probe_alpha(p, seq, system, levels, s)
    _check_points(max(seq.checkpoint(j) for j in sorted(set(levels))), "residue words")
    traj = divergence_probe(seq, alpha, s, levels, system)
    header = ["level", "N", "s", "R", "predicted"]
    rows = [
        (pt.level, pt.n, pt.s, _fmt_float(pt.r), _fmt_float(pt.predicted))
        for pt in traj.points
    ]
    for row in rows:
        print(" ".join(f"{h}={v}" for h, v in zip(header, row)))
    if p["out.csv"] is not None:
        ctx.write_csv(p["out.csv"], header, rows)
        print(f"wrote {p['out.csv']}: {len(rows)} rows")
    ctx.finish(notes=notes)


def _run_mc(p: dict[str, object], ctx: RunContext) -> None:
    # the grid monte_carlo_ppc samples: both lists sorted, repeats dropped
    schedule, s_values = sorted(set(p["mc.schedule"])), sorted(set(p["mc.s"]))
    points = p["mc.trials"] * sum(schedule) * len(s_values)
    _check_points(points, "sampled points", p["mc.max_points"], "mc.max_points")
    seq = _load_sequence(p)
    result = monte_carlo_ppc(
        seq,
        seed=p["mc.seed"],
        trials=p["mc.trials"],
        schedule=schedule,
        s_values=s_values,
        delta=p["mc.delta"],
    )
    rows = [
        (row.trial, p["mc.seed"], row.n, row.s, _fmt_float(row.r))
        for row in result.rows
    ]
    ctx.write_csv(p["out.csv"], ["trial", "seed", "N", "s", "R"], rows)
    summary = {}
    for n in schedule:
        for s in s_values:
            mean = result.mean_r(n, s)
            exceed = result.exceed_fraction(n, s)
            print(f"N={n} s={s}: mean R = {mean:.4f}, "
                  f"share above (1+delta)*2s = {exceed:.2f}")
            summary[f"N={n},s={s}"] = {"mean_r": mean, "exceed_fraction": exceed}
    print(f"wrote {p['out.csv']}: {len(rows)} rows")
    ctx.finish(seed=p["mc.seed"], notes={"delta": p["mc.delta"], "summary": summary})


def _run_bohr(p: dict[str, object], ctx: RunContext) -> None:
    s = bohr_set(p["bohr.d"], p["bohr.delta"])
    # the lines are formatted once, for stdout and the file alike, and
    # printed with no write per line
    text = _interval_text(s)
    print(text, f"measure = {s.measure}", sep="")
    if p["out.intervals"] is not None:
        _write_interval_text(
            p["out.intervals"], text,
            comment=f"bohr d={p['bohr.d']} delta={p['bohr.delta']}",
        )
        ctx.outputs.append(p["out.intervals"])
    ctx.finish(notes={"measure": str(s.measure)})


def _run_bc_ratio(p: dict[str, object], ctx: RunContext) -> None:
    sets = [read_interval_set(path) for path in p["bc.sets"]]
    ratio = borel_cantelli_ratio(sets)
    print(f"ratio = {ratio} ({float(ratio)!r})")
    ctx.finish(notes={"ratio": str(ratio)})


def _run_corollary_table(p: dict[str, object], ctx: RunContext) -> None:
    r = p["table.r"]
    if r not in (1, 2):
        raise ConfigError("table.r must be 1 or 2")
    f = GrowthFunction("ilog", r=r)
    f_eps = GrowthFunction("ilog_eps", r=r, eps=p["table.eps"])
    dim = predicted_hausdorff_dim(f_eps)
    seq = build_blocks(f, p["table.beta"], p["table.gamma"], p["table.jmax"])
    levels = list(range(1, p["table.jmax"] + 1))
    result = energy_scaling(seq, levels, max_pairs=p["table.max_pairs"])
    rows = [
        (row.level, row.n, row.energy, _fmt_float(row.normalized), _fmt_float(dim))
        for row in result.rows
    ]
    ctx.write_csv(
        p["out.csv"], ["j", "N", "energy", "normalized", "predicted_dim_eps"], rows
    )
    eligible = result.eligible()
    spread = result.spread if eligible else float("nan")
    print(f"wrote {p['out.csv']}: {len(rows)} rows, spread over nonempty runs = "
          f"{spread:.4f}")
    ctx.finish(notes={"spread": spread, "eps": p["table.eps"],
                      "energy_split": dict(result.split)})


_RUNNERS = {
    "build-seq": _run_build_seq,
    "energy": _run_energy,
    "scaling": _run_scaling,
    "pc": _run_pc,
    "probe": _run_probe,
    "mc": _run_mc,
    "bohr": _run_bohr,
    "bc-ratio": _run_bc_ratio,
    "corollary-table": _run_corollary_table,
}


# -- config files ---------------------------------------------------------------------


def parse_config(path: str) -> tuple[str, dict[str, str], str]:
    """Returns (experiment, raw key->token map, file text)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    raw: dict[str, str] = {}
    seen: dict[str, int] = {}
    experiment: str | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, eq, value = stripped.partition("=")
        if not eq:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        if key in seen:
            raise ConfigError(
                f"{path}:{lineno}: duplicate key {key!r} (first at line {seen[key]})"
            )
        seen[key] = lineno
        if key == "experiment":
            if value not in EXPERIMENTS:
                raise ConfigError(
                    f"{path}:{lineno}: unknown experiment {value!r}; "
                    f"choose from {sorted(EXPERIMENTS)}"
                )
            experiment = value
        else:
            raw[key] = value
    if experiment is None:
        raise ConfigError(f"{path}: missing 'experiment = <name>' line")
    # re-validate keys with line numbers now that the experiment is known
    known = {p.key for p in EXPERIMENTS[experiment]} | {_NOTES_KEY}
    for key, lineno in seen.items():
        if key != "experiment" and key not in known:
            raise ConfigError(
                f"{path}:{lineno}: unknown key {key!r} for experiment "
                f"{experiment!r}"
            )
    return experiment, raw, text


# -- entry point -----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as :class:`ConfigError`, so it ends like any
    other config error: exit 2 and one line.  Subparsers take this class
    too."""

    def error(self, message: str) -> NoReturn:
        raise ConfigError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: a parse
    keeps no state in it."""
    parser = _Parser(
        prog="ppclab",
        description="pair correlations of low-additive-energy sequences",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, schema in EXPERIMENTS.items():
        sp = sub.add_parser(name)
        for param in schema:
            kwargs: dict = {"dest": param.key, "help": param.help, "type": str}
            if param.greedy:
                kwargs["nargs"] = "+"
            sp.add_argument(param.flag, **kwargs)
        sp.add_argument("--notes", dest=_NOTES_KEY, type=str,
                        help="free text recorded in the manifest")
    runp = sub.add_parser("run")
    runp.add_argument("config", help="flat key = value experiment file")
    return parser


def _dispatch(name: str, raw: dict[str, str], config_text: str) -> None:
    values = _parse_raw(name, raw)
    ctx = RunContext(
        experiment=name,
        raw=raw,
        config_text=config_text,
        config_sha256=hashlib.sha256(config_text.encode()).hexdigest(),
        outputs=[],
    )
    _RUNNERS[name](values, ctx)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
        if ns.experiment == "run":
            name, raw, text = parse_config(ns.config)
            _dispatch(name, raw, text)
        else:
            raw = {}
            flags = [(p.key, p.flag) for p in EXPERIMENTS[ns.experiment]]
            for key, flag in flags + [(_NOTES_KEY, "--notes")]:
                value = getattr(ns, key, None)
                if value is not None:
                    value = " ".join(value) if isinstance(value, list) else value
                    if not value.strip():  # as a config file refuses it
                        raise ConfigError(f"empty value for {flag}")
                    raw[key] = value
            _dispatch(ns.experiment, raw, _canonical_text(ns.experiment, raw))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        print("resource error: out of memory; request a smaller run", file=sys.stderr)
        return 4
    except RecursionError:
        print("precondition error: recursion too deep for this input", file=sys.stderr)
        return 3
    except (ValueError, PrecisionError, ArithmeticError, OSError) as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
