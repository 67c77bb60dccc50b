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

from .actions import (
    ContinuousPose,
    bin_rotation,
    check_action,
    devoxelize,
    discretize_pose,
    unbin_rotation,
    voxelize,
)
from .bench import DEFAULT_TASKS, EpisodeResult, TaskSpec, World, execute, scripted_expert, spawn
from .demos import Demonstration, EpisodeStep, extract_keyframes, sample_batch
from .gateway import (
    CallLog,
    CallRecord,
    ChatGateway,
    ChatRequest,
    HttpBackend,
    OracleBackend,
    oracle_nearest_demo,
)
from .judge import JudgeVerdict, PlanJudge, score_plan
from .perception import MaskedCloud, build_observation, centroid_error, extract_centroid
from .prompts import (
    PromptBundle,
    build_follower_prompt,
    build_judge_prompt,
    build_single_prompt,
    parse_completion,
    serialize_observation,
)
from .runner import AggregateReport, RunConfig, run_experiment
from .strategies import (
    BimanualPlan,
    StrategyConfig,
    compose,
    run_arms_debate,
    run_best_of_n,
    run_debate_plus_bon,
    run_dual_agent,
    run_leader_follower,
    run_single_agent,
    run_strategy,
)

__version__ = "0.1.0"
