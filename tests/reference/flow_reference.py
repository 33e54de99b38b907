"""The flow integrator as it was when every RK4 step was one matrix-vector
product in a Python loop.

`simulate_flow` keeps the stepping verbatim: one step of the constant RK4
map per iteration, a shorter final step so that the last sample lands on
t_end, every `stride`-th state stored, and the run flagged at the first
stored state that is not finite. The time after i full steps is i dt,
rounded once, and after the shorter step t_end itself. Test-only code.
"""

from __future__ import annotations

import numpy as np

from numax.analysis import (
    FlowResult,
    QPSystem,
    default_flow_dt,
    flow_initial_state,
    flow_state_matrix,
)
from numax.core import ConfigurationError


def simulate_flow(sys: QPSystem, x0, mu0, dt: float | None = None,
                  t_end: float = 10.0, max_samples: int = 20001) -> FlowResult:
    """Integrate the linear flow with classical fixed-step RK4.

    Every step advances by dt (plus one final shorter step so the last
    sample lands exactly on t_end); when the horizon spans more steps than
    max_samples, only every k-th state is stored.
    """
    if dt is None:
        dt = default_flow_dt(sys)
    if dt <= 0.0:
        raise ConfigurationError("dt must be positive")
    M = flow_state_matrix(sys)
    z = flow_initial_state(sys, x0, mu0)
    n, c = sys.dim_primal, sys.num_constraints

    num_full = int(np.floor(t_end / dt + 1e-12))
    remainder = t_end - num_full * dt
    has_remainder = remainder > 1e-12 * max(1.0, t_end)
    total_steps = num_full + (1 if has_remainder else 0)
    stride = max(1, -(-total_steps // max(1, max_samples - 1)))

    def rk4_operator(step):
        # One classical RK4 step of zdot = Mz is the constant linear map
        # I + step M + step^2 M^2/2 + step^3 M^3/6 + step^4 M^4/24.
        R = np.eye(M.shape[0])
        term = np.eye(M.shape[0])
        for order in range(1, 5):
            term = term @ (step / order * M)
            R = R + term
        return R

    R = rk4_operator(dt)
    R_rem = rk4_operator(remainder) if has_remainder else None

    times = [0.0]
    states = [z.copy()]
    flagged = False

    for i in range(total_steps):
        if has_remainder and i == num_full:
            z = R_rem @ z
            t = t_end
        else:
            z = R @ z
            t = (i + 1) * dt
        if (i + 1) % stride == 0 or i == total_steps - 1:
            if not np.all(np.isfinite(z)):
                flagged = True
                break
            times.append(t)
            states.append(z.copy())

    arr = np.array(states)
    return FlowResult(
        times=np.array(times),
        x=arr[:, :n],
        mu=arr[:, n:n + c],
        xdot=arr[:, n + c:2 * n + c],
        mudot=arr[:, 2 * n + c:],
        flagged=flagged,
    )
