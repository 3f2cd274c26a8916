"""Reproduce the classic potential-field failure on a symmetric blocker.

A sphere sits exactly on a straight-line path.  The repulsive force is then
perfectly anti-parallel to the motion: there is no lateral component to
steer around, so the baseline decelerates into a force balance and stalls
(or rings against the steep near-contact gradient).  The tube engine passes
the same scenario by sliding the command around the clearance boundary.
"""

import numpy as np

from safedmp import baselines, bench, dmp, safe_exec


def straight_line_model():
    centers, widths = dmp.default_basis(25, 25.0 / 6.0)
    return dmp.DmpModel(
        d=3, n_basis=25, alpha=25.0, tau_nominal=2.0,
        x0=np.array([0.0, 0.0, 0.25]), g=np.array([0.6, 0.0, 0.25]),
        centers=centers, widths=widths, weights=np.zeros((3, 25)),
    )


def main():
    model = straight_line_model()
    nominal = dmp.rollout(model, 0.005)
    obstacle = safe_exec.Obstacle(center0=[0.3, 0.0, 0.25], radius=0.05)
    print("straight-line motion with a sphere dead on the path at x=0.3 m")

    engine = baselines.ApfEngine(
        model, nominal.trajectory, obstacles=[obstacle], dt=0.005
    )
    log_apf = safe_exec.run(engine)
    speed = np.linalg.norm(
        np.diff(log_apf.x_measured, axis=0) / log_apf.dt, axis=1
    )
    print(f"\ndmp-apf: converged={log_apf.converged}, "
          f"oscillation={bench.oscillation_flag(log_apf)}, "
          f"collisions={bench.collision_count(log_apf)}")
    print(f"         final position x={log_apf.x_measured[-1, 0]:.3f} m "
          f"(goal at 0.6), median speed {np.median(speed):.2e} m/s")

    engine = safe_exec.SafeDmpEngine(model, obstacles=[obstacle], dt=0.005)
    log_safe = safe_exec.run(engine)
    print(f"\nsafedmp: converged={log_safe.converged} in "
          f"{log_safe.steps * log_safe.dt:.2f} s, collisions="
          f"{bench.collision_count(log_safe)}, min surface clearance "
          f"{log_safe.min_surface_clearance():.3f} m")


if __name__ == "__main__":
    main()
