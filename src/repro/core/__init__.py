"""The paper's primary contribution: the CTMC model of the GPRS radio interface.

The model represents a single cell of an integrated GSM/GPRS network in which
``N`` physical channels are shared between circuit-switched GSM voice calls
and packet-switched GPRS sessions.  ``N_GPRS`` channels are permanently
reserved as packet data channels (PDCH); the remaining ``N_GSM = N - N_GPRS``
channels are used by GSM calls with priority and as on-demand PDCHs otherwise.

A state is the tuple ``(n, k, m, r)``:

* ``n`` -- active GSM calls (0 .. N_GSM),
* ``k`` -- data packets queued in the BSC buffer (0 .. K),
* ``m`` -- active GPRS sessions (0 .. M),
* ``r`` -- sessions whose on--off traffic source is currently *off* (0 .. m).

Transition rates follow Table 1 of the paper; user mobility enters through the
handover-balancing fixed point (Eqs. (4)-(5)) and TCP flow control through the
buffer threshold ``eta`` that caps the packet arrival rate once the buffer is
more than ``eta * K`` full.  Performance measures (Eqs. (6)-(11)) are computed
from the stationary distribution.

Public entry point: :class:`~repro.core.model.GprsMarkovModel`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "handover": ("HandoverBalance", "balance_handover_rates"),
        "measures": ("GprsPerformanceMeasures", "compute_measures"),
        "model": ("GprsMarkovModel",),
        "parameters": ("GprsModelParameters",),
        "state_space": ("GprsStateSpace",),
        "template": ("GeneratorTemplate",),
        "transitions": ("TransitionBatch", "enumerate_transitions"),
    },
)
