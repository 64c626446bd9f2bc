"""Seeded inputs that need neither numpy nor splitstep.

Set-up time is measured from a fresh interpreter that has imported nothing
heavy yet, so everything that happens before the timer starts (choosing
amplitudes, writing config copies) lives here and uses the standard library
only.
"""

from __future__ import annotations

import configparser
import math
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("march_n2000", "certified_p4", "cli_configs")

# shipped config per subcommand, and the CSV header the README documents
CONFIGS = {
    "run": "run_manufactured.ini",
    "converge": "converge_weighted.ini",
    "stability": "stability_three_level.ini",
    "compare": "compare_schemes.ini",
}
SUBCOMMANDS = tuple(CONFIGS)
CSV_HEADERS = {
    "run": "step,t,norm_A,energy_E,thm_slack",
    "converge": "tau,error_A,observed_order",
    "stability": "sigma,tau,scheme,min_slack,r_min_eig",
    "compare": "tau,n_steps,max_diff_a,final_diff_a,ratio",
}


def amplitudes(seed: int, p: int) -> list[float]:
    """Manufactured profile constants c, one per component, from the seed."""
    rng = random.Random(seed)
    return [rng.uniform(0.5, 2.0) for _ in range(p)]


def read_config(path: Path) -> configparser.ConfigParser:
    # same parser settings as the CLI
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if not cp.read(path):
        raise FileNotFoundError(path)
    return cp


def write_seeded_configs(config_dir: Path, out_dir: Path, seed: int) -> dict[str, Path]:
    """Copy the four shipped configs, with seeded ``c`` for manufactured kinds."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for sub, name in CONFIGS.items():
        cp = read_config(config_dir / name)
        if cp.get("problem", "kind").strip() == "manufactured":
            p = int(cp.get("problem", "p", fallback="2"))
            cp.set("problem", "c", " ".join(repr(c) for c in amplitudes(seed, p)))
        path = out_dir / name
        with open(path, "w", encoding="utf-8") as handle:
            cp.write(handle)
        paths[sub] = path
    return paths


def _numbers(text: str) -> list[float]:
    return [float(Fraction(tok)) for tok in text.replace(",", " ").split()]


def scheme_settings(path: Path) -> dict:
    """The config values the benchmark needs: problem kind, [scheme], CSV name."""
    cp = read_config(path)
    sch = cp["scheme"]
    out = {
        "problem": cp.get("problem", "kind").strip(),
        "kind": sch.get("kind", "").strip(),
        "sigma": _numbers(sch.get("sigma", "0.5"))[0],
        "epsilon": _numbers(sch.get("epsilon", "1.0"))[0],
        "T": _numbers(sch.get("t", "1.0"))[0],
        "csv": cp.get("output", "csv", fallback=None),
    }
    for key in ("tau", "taus", "sigmas"):
        if key in sch:
            out[key] = _numbers(sch[key])
    out["n_steps"] = int(sch.get("n_steps", "100"))
    return out


def expected_rows(sub: str, settings: dict) -> int:
    """Data rows the subcommand's CSV must hold for this config."""
    if sub == "run":
        tau = settings["tau"][0]
        return max(1, math.ceil(settings["T"] / tau - 1e-9)) + 1
    if sub == "stability":
        return len(settings["sigmas"]) * len(settings["taus"])
    return len(settings["taus"])
