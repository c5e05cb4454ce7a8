"""qembed: hybrid quantum-classical binary classification toolkit.

Statevector simulation of small circuits, a Z feature map with a
real-amplitude ansatz, a toy vision-transformer encoder, exact hybrid
gradients (parameter shift + analytic reverse mode), a deterministic
training harness, and classification/benchmark tooling with a CLI.
"""
from .autodiff import (
    ReductionLayer,
    backward,
    bce_grad_p0,
    bce_loss,
    circuit_angle_gradients,
    finite_diff_grad,
    reduce,
)
from .benchmark import run_benchmark
from .checkpoint import load_checkpoint, save_checkpoint
from .circuits import (
    AnsatzSpec,
    FeatureMapSpec,
    QuantumForwardResult,
    build_real_amplitudes,
    build_z_feature_map,
    quantum_forward,
    serialize_gates,
)
from .data import EmbeddingRecord, generate_synthetic, load_embeddings, write_embeddings
from .encoder import (
    EncoderConfig,
    EncoderWeights,
    add_positional,
    encode,
    init_encoder_weights,
)
from .metrics import (
    BenchmarkSummary,
    MetricsReport,
    compute_metrics,
    format_comparison_table,
    median,
    population_sd,
    summarize_f1,
)
from .model import (
    HybridModel,
    make_bypass_model,
    make_encoder_model,
    model_forward,
    named_parameters,
    readout_p0,
    set_parameters,
)
from .statevector import (
    GateOp,
    StateVector,
    apply_gate,
    marginal_zero_probability,
    new_zero_state,
    probabilities,
    run_circuit,
)
from .training import TrainingConfig, TrainingHistory, evaluate, predict, row_gradients, train

__version__ = "0.1.0"
