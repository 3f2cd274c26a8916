"""Kick the end effector twice and compare how the methods recover.

Two 5 cm impulses displace the measured position for one control step each.
The tube controller snaps the execution back to the plan within a few steps
while the time-dilation coupling briefly slows the primitive; the
potential-field baseline has to wait for its attractor dynamics, which
takes an order of magnitude longer.
"""

import numpy as np

from safedmp import baselines, bench, dmp, safe_exec, trajectory


def main():
    demo = trajectory.preprocess(trajectory.load_demo("builtin:sshape"))
    model = dmp.learn_from_trajectory(demo)
    nominal = dmp.rollout(model, 0.005)
    impulses = bench.standard_perturbations(nominal.trajectory.duration)
    for pert in impulses:
        print(f"impulse of {np.linalg.norm(pert.offset) * 100:.0f} cm "
              f"at t = {pert.t_apply:.2f} s")

    engine = safe_exec.SafeDmpEngine(model, dt=0.005)
    log_safe = safe_exec.run(engine, perturbations=impulses)
    conv_safe = bench.convergence_time_perturb(
        log_safe, nominal.trajectory, impulses
    )
    taus = log_safe.tau
    print(f"\nsafedmp:  re-converged in {conv_safe * 1000:.1f} ms on average; "
          f"time scale peaked {taus.max() - model.tau_nominal:.2e} s above "
          f"nominal and settled back (final excess "
          f"{taus[-1] - model.tau_nominal:.1e} s)")

    engine = baselines.ApfEngine(model, nominal.trajectory, dt=0.005)
    log_apf = safe_exec.run(engine, perturbations=impulses)
    conv_apf = bench.convergence_time_perturb(
        log_apf, nominal.trajectory, impulses
    )
    print(f"dmp-apf:  re-converged in {conv_apf * 1000:.1f} ms on average "
          f"(attractor dynamics only)")
    print(f"\nspeedup: {conv_apf / conv_safe:.0f}x faster recovery under the tube")


if __name__ == "__main__":
    main()
