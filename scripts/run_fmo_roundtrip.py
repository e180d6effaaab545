"""Round trip on the seven-site pigment network from configs/.

Plans the access set, simulates moduli at the accessible sites (exact or
shot-sampled), reconstructs every field and coupling, and prints recovered
against true values.
"""

import argparse
import json
from pathlib import Path

from gateway_tomo import (
    assemble_single_excitation,
    compute_access_plan,
    eigendecompose,
    gauge_fix,
    graph_from_json,
    measure_exact,
    measure_shots,
    params_from_json,
    reconstruct,
)
from gateway_tomo.cli import parse_shots

ROOT = Path(__file__).resolve().parents[1]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--graph", default=ROOT / "configs" / "fmo_graph.json")
    ap.add_argument("--params", default=ROOT / "configs" / "fmo_params.json")
    ap.add_argument("--shots", type=parse_shots,
                    help="sample this many shots per site instead of exact moduli")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    g = graph_from_json(json.loads(Path(args.graph).read_text()))
    params = params_from_json(json.loads(Path(args.params).read_text()))

    plan = compute_access_plan(g)
    print(f"reference {plan.reference}, access {list(plan.access_set)}, "
          f"cycle {list(plan.cycle_plan.cycle) if plan.cycle_plan else None}")

    eig = gauge_fix(eigendecompose(assemble_single_excitation(g, params)),
                    plan.reference)
    if args.shots is not None:
        meas = measure_shots(eig, plan.access_set, args.shots, args.seed)
        print(f"simulating {args.shots} shots per site (seed {args.seed})")
    else:
        meas = measure_exact(eig, plan.access_set)
        print("simulating exact moduli")

    result = reconstruct(g, plan, meas)

    print(f"\n{'parameter':>12}  {'true':>10}  {'recovered':>10}  {'error':>9}")
    for n in g.nodes:
        t, r = params.local_fields[n], result.params.local_fields[n]
        print(f"{'b[%d]' % n:>12}  {t:>10.5f}  {r:>10.5f}  {abs(r - t):>9.2e}")
    for e in g.edges:
        t, r = params.couplings[e], result.params.couplings[e]
        print(f"{'c[%d-%d]' % e:>12}  {t:>10.5f}  {r:>10.5f}  {abs(r - t):>9.2e}")

    worst = max(result.residuals.values(), default=0.0)
    print(f"\nmax consistency residual: {worst:.2e}")
    if result.flags:
        print(f"flags: {', '.join(result.flags)}")
    if result.cycle_diagnostics:
        d = result.cycle_diagnostics
        print(f"cycle solve: moments {list(d.moments_used)}, rank {d.rank}, "
              f"condition {d.condition_number:.1f}")


if __name__ == "__main__":
    main()
