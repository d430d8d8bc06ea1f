"""symdigits: inversion-symmetric feature maps and bias-free tanh networks
for 8x8 digit classification, with probes of the symmetry-induced
degeneracy of symmetrized training losses."""

from .digits import (Dataset, augment_shifts, invert_dataset, load_bundled_dataset,
                     load_dataset, render_image, symmetrize)
from .features import (Identity, NeighborProduct, PermutationProduct, Square,
                       feature_map_from_name, inversion_group, relative_sign)
from .network import (Layer, Mlp, TrainConfig, TrainResult, TrainingDiverged,
                      backward, forward, grad_check, init_mlp, softmax, train)
from .persistence import load_model, save_model
from .experiments import BoundCheckReport, EvalReport, bound_check, reproduce_tables
from .degeneracy import (CurvatureReport, OrbitScan, SampledLossReport,
                         ToyRotationTask, generator_curvature,
                         generator_curvature_sweep, make_toy_task,
                         orbit_loss_scan, sampled_loss_expectation, train_toy,
                         weight_orbit_invariance)

__version__ = "0.1.0"
