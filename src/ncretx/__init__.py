"""Network-coded retransmission schedulers for single-hop wireless multicast.

Simulates and compares repair strategies for a batch of N packets multicast
to M receivers over independent Bernoulli loss channels, together with the
closed-form lower bound on how few repair transmissions any scheme needs.
"""

from .channel import ChannelParams, sample_matrix
from .decoder import ReceiverState
from .metrics import RunMetrics, retransmission_ratio, run_metrics, time_to_decode
from .model import LOST, RECEIVED, CodedPacket, IntegrityError, TransmissionMatrix
from .schedulers import (
    SCHEDULER_NAMES,
    BenefitAudit,
    RunResult,
    Schedule,
    baseline_arq,
    benefit,
    greedy_nc,
    rlnc,
    run_scheduler,
    sort_by_utility,
)
from .theory import (
    TheoryParams,
    expected_baseline_retx,
    expected_min_retx,
    loss_cdf,
    q_distribution,
    theory_ratio,
)

__all__ = [
    "ChannelParams", "CodedPacket", "IntegrityError", "LOST", "RECEIVED",
    "ReceiverState", "RunMetrics", "RunResult", "Schedule", "SCHEDULER_NAMES",
    "BenefitAudit", "TheoryParams", "TransmissionMatrix",
    "baseline_arq", "benefit", "expected_baseline_retx",
    "expected_min_retx", "greedy_nc", "loss_cdf", "q_distribution",
    "retransmission_ratio", "rlnc", "run_metrics", "run_scheduler",
    "sample_matrix", "sort_by_utility", "theory_ratio", "time_to_decode",
]

__version__ = "0.1.0"
