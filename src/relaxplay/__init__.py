"""Oracle-efficient online learning with hallucinated samples: predictors,
epoch/shifting/bandit wrappers, runtime verification, and a CLI harness."""

from .core import (
    ABSOLUTE_LOSS,
    AdversaryFault,
    ConfigError,
    ErmResult,
    Feature,
    HypothesisClass,
    InputDomainError,
    LabeledPair,
    LossFn,
    MixedErmQuery,
    PoolExhaustedError,
    SignedTerm,
    UnsupportedClassError,
    best_in_hindsight,
    loss_eval,
    lowest_argmin,
)
from .oracles import (
    FiniteClass,
    IntervalClass,
    LipschitzClass,
    ThresholdClass,
    reference_solve,
)
from .predictor import (
    GameHistory,
    PredictorConfig,
    RelaxationDraw,
    draw_halluc,
    f_eval,
    inner_sup,
    inner_sups,
    predict_binary_fast,
    predict_binary_fast_batch,
    predict_general,
    relaxation_R,
)
from .environment import (
    AdaptiveAdversary,
    Adversary,
    FeatureDistribution,
    ObliviousAdversary,
    SemiAdaptiveAdversary,
    ShiftingProcess,
    noisy_target,
    sample_feature,
)
from .epochs import (
    EpochClock,
    EpochSchedule,
    RunConfig,
    alpha_from_q,
    epoch_length,
    run_epoch_predictor,
)
from .shifting import block_length, blocks_straddling_changes, run_shifting
from .bandit import (
    ArmCosts,
    BanditConfig,
    BanditDraw,
    PolicyClass,
    bandit_epoch_schedule,
    draw_bandit,
    estimate_cost,
    gamma_default,
    mix_q,
    phi_values,
    play_arm,
    policy_erm,
    run_bandit,
    waterfill_q,
)
from .verify import (
    BinaryInstance,
    CheckReport,
    SensitivityInstance,
    TinyGame,
    check_admissibility,
    check_decomposition,
    check_fact2,
    check_sensitivity,
    default_binary_generator,
    default_sensitivity_generator,
    discrepancy_probe,
    estimate_rademacher,
    standard_checks,
)
from .harness import ExponentFit, config_hash, fit_exponent, run_experiment
from .traces import RegretTrace, read_trace_csv

__version__ = "0.1.0"
