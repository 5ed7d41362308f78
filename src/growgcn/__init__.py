"""Deep GCNs trained by growing one layer at a time.

The package trains node classifiers on graph bundles, either jointly at full
depth (standard) or stage by stage: each stage appends an identity-initialized
layer, freezes everything older, and fine-tunes the frozen layers through
low-rank adapters.
"""

from .autodiff import Tensor, grad_check
from .checkpoint import load_checkpoint, save_checkpoint
from .data import GraphDataset, Splits, generate_sbm, load_bundle, save_bundle, split_per_class
from .errors import DataError, NumericalAbort
from .layers import (
    GcnLayer,
    LayerStack,
    LoraAdapter,
    glorot_init,
    identity_init,
    make_adapter,
    sgc_propagate,
    stack_forward,
)
from .metrics import (
    CollapseReport,
    collapse_report,
    dirichlet_energy,
    distance_to_constant,
    export_embeddings,
)
from .sparse import SparseMatrix, build_adjacency, normalized_laplacian
from .train import (
    Adam,
    EarlyStopper,
    StageReport,
    TrainConfig,
    TrainReport,
    evaluate,
    train,
)

__version__ = "0.1.0"
