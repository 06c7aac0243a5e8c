"""Two-stage superclass/subclass classification with compressed specialists.

A router network picks the coarse category, a per-category specialist picks
the fine one. Specialists are stored as compressed parameter deltas against
the router, and the efficient runtime keeps a single network resident,
rebuilding specialists on demand while metering bytes loaded and peak
memory.
"""

from .data import Dataset, SyntheticSpec, generate_synthetic, load_dataset, save_dataset
from .delta import DeltaPack, compute_delta, pack, reconstruct, unpack
from .errors import SuperSubError
from .hierarchy import HierarchyManifest, make_manifest, parse_manifest
from .network import (
    Network,
    NetworkConfig,
    forward,
    gradient_check,
    init_network,
    load_network,
    save_network,
)
from .runtime import (
    CostLedger,
    EfficientSession,
    EvalReport,
    ModelRegistry,
    confusion_matrix,
    evaluate_efficient,
    evaluate_lowerbound,
    evaluate_two_stage,
    evaluate_upperbound,
    infer_efficient,
    infer_vanilla,
)
from .tensor import Prng, cross_entropy, f16_round, gaussian, matmul, relu, softmax_rows
from .train import TrainConfig, finetune_from_super, train

__version__ = "0.1.0"
