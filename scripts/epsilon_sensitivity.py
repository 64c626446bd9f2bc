#!/usr/bin/env python3
"""Report how the three-level scheme responds to the regularizing weight.

No selection rule is baked into the library: accuracy stays first order for
any order-one epsilon, so this script just tabulates final-time error, the
smallest eigenvalue of the difference weight R (``unresolved`` where R's
rounding decides it), and the worst energy slack over a log-spaced epsilon
range. Large epsilon inflates R and damps the scheme; tiny epsilon thins R
toward the stability boundary.
"""

import argparse

from splitstep import (
    EnergyObserver,
    SchemeConfig,
    convergence_study,
    example_porosity_spec,
    manufactured_problem,
    run,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m", type=int, default=31)
    parser.add_argument("--tau", type=float, default=1.0 / 64)
    parser.add_argument(
        "--epsilons",
        type=float,
        nargs="+",
        default=(0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0),
    )
    args = parser.parse_args()

    manu = manufactured_problem(example_porosity_spec(p=2, m=args.m))
    n_steps = round(manu.problem.T / args.tau)

    print(f"three_level, sigma=1, tau={args.tau:g}, {n_steps} steps, m={args.m}")
    print(f"{'epsilon':>8} {'error_A':>14} {'order':>7} {'min_eig_R':>12} {'min_slack':>12}")
    taus = (args.tau * 2, args.tau)
    for eps in args.epsilons:
        cfg = SchemeConfig("three_level", sigma=1.0, tau=args.tau, n_steps=n_steps, epsilon=eps)
        report = convergence_study(manu.problem, cfg, taus)
        observer = EnergyObserver()
        run(manu.problem, cfg, observers=(observer,), keep_states=False)
        r_eig = observer.diff_weight_min_eig()
        shown = "unresolved" if r_eig is None else f"{r_eig:.4e}"
        print(
            f"{eps:>8.3f} {report.rows[-1].error_a:>14.6e} {report.finest_order:>7.3f} "
            f"{shown:>12} {observer.min_slack:>12.4e}"
        )


if __name__ == "__main__":
    main()
