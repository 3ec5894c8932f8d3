"""Active learning for performance analysis — the paper's contribution.

Public API::

    from repro.al import (ActiveLearner, VarianceReduction, CostEfficiency,
                          random_partition, run_batch, tradeoff_curve)
"""

from .calibration import CoverageReport, coverage_curve, interval_coverage
from .campaign import (
    CampaignCheckpoint,
    CampaignConfig,
    CampaignResult,
    OnlineCampaign,
    load_checkpoint,
    save_checkpoint,
)
from .continuous import (
    AcquisitionResult,
    ContinuousActiveLearner,
    ContinuousTrace,
    maximize_cost_efficiency,
    maximize_sd,
)
from .guardrails import (
    DriftConfig,
    DriftDetector,
    FitGate,
    GuardrailConfig,
    GuardrailTallies,
    HealthConfig,
    HealthReport,
    LastKnownGood,
    ModelHealth,
    apply_remediation,
)
from .fidelity import (
    FidelityObservation,
    FidelityRecord,
    FidelityTier,
    FusionState,
    MultiFidelityCostEfficiency,
    MultiFidelityLearner,
    MultiFidelityOracle,
    MultiFidelityResult,
    tiers_from_spec,
)
from .learner import ActiveLearner, ALTrace, IterationRecord, default_model_factory
from .metrics import amsd, evaluate_model, gmsd, nlpd, rmse
from .oracle import HPGMGExecutor, Observation, OfflineOracle, OnlineHPGMGOracle
from .partition import Partition, random_partition, random_partitions
from .pool import CandidatePool
from .resilience import (
    FailureAccounting,
    QuarantineDecision,
    QuarantinePolicy,
    RetryPolicy,
    ShardBreaker,
)
from .sharding import (
    AcquisitionRouter,
    InputPartitioner,
    ShardedLearner,
    ShardedModel,
    ShardingConfig,
    ShardSupervisor,
    mixed_operator_pool,
)
from .replicates import ReplicateOutcome, SweepResult, run_replicates
from .runner import BatchResult, aggregate_series, run_batch
from .stopping import (
    AMSDConvergence,
    amsd_tail_converged,
    dynamic_noise_floor,
    first_converged_iteration,
)
from .strategies import (
    EMCM,
    CostEfficiency,
    CostModelEfficiency,
    RandomSampling,
    Strategy,
    VarianceReduction,
    select_batch,
)
from .tradeoff import (
    StrategyComparison,
    TradeoffCurve,
    compare_strategies,
    crossover_cost,
    relative_reduction,
    tradeoff_curve,
)

__all__ = [
    "CoverageReport",
    "CampaignCheckpoint",
    "CampaignConfig",
    "CampaignResult",
    "OnlineCampaign",
    "save_checkpoint",
    "load_checkpoint",
    "RetryPolicy",
    "QuarantinePolicy",
    "QuarantineDecision",
    "FailureAccounting",
    "ShardBreaker",
    "InputPartitioner",
    "ShardingConfig",
    "ShardedModel",
    "ShardSupervisor",
    "AcquisitionRouter",
    "ShardedLearner",
    "mixed_operator_pool",
    "HealthConfig",
    "HealthReport",
    "ModelHealth",
    "LastKnownGood",
    "apply_remediation",
    "DriftConfig",
    "DriftDetector",
    "GuardrailConfig",
    "GuardrailTallies",
    "FitGate",
    "interval_coverage",
    "coverage_curve",
    "AcquisitionResult",
    "ContinuousActiveLearner",
    "ContinuousTrace",
    "maximize_sd",
    "maximize_cost_efficiency",
    "ActiveLearner",
    "ALTrace",
    "IterationRecord",
    "default_model_factory",
    "FidelityTier",
    "FidelityObservation",
    "FidelityRecord",
    "FusionState",
    "MultiFidelityOracle",
    "MultiFidelityCostEfficiency",
    "MultiFidelityLearner",
    "MultiFidelityResult",
    "tiers_from_spec",
    "Partition",
    "random_partition",
    "random_partitions",
    "CandidatePool",
    "Strategy",
    "VarianceReduction",
    "CostEfficiency",
    "CostModelEfficiency",
    "RandomSampling",
    "EMCM",
    "select_batch",
    "rmse",
    "amsd",
    "gmsd",
    "nlpd",
    "evaluate_model",
    "BatchResult",
    "run_batch",
    "aggregate_series",
    "ReplicateOutcome",
    "SweepResult",
    "run_replicates",
    "TradeoffCurve",
    "tradeoff_curve",
    "crossover_cost",
    "relative_reduction",
    "compare_strategies",
    "StrategyComparison",
    "AMSDConvergence",
    "amsd_tail_converged",
    "dynamic_noise_floor",
    "first_converged_iteration",
    "OfflineOracle",
    "OnlineHPGMGOracle",
    "HPGMGExecutor",
    "Observation",
]
