"""Multi-agent in-context learning for bimanual manipulation.

Pipeline overview: continuous end-effector states are discretized into an
integer action space (``actions``), scenes are observed as object-centroid
voxel dictionaries (``perception``), demonstrations are keyframed and
batched (``demos``), serialized into ICL prompts (``prompts``), and sent
through a chat gateway (``gateway``). Prediction strategies from a single
joint call up to judged best-of-n live in ``strategies``; a deterministic
rubric judge in ``judge``; a desk-scale task environment with scripted
experts in ``bench``; the experiment runner and CLI in ``runner``/``cli``.
"""

from .demos import sample_batch
from .gateway import CallLog, ChatGateway, OracleBackend
from .judge import PlanJudge
from .strategies import StrategyConfig, run_best_of_n

__version__ = "0.1.0"
