"""symdigits: inversion-symmetric feature maps and bias-free tanh networks
for 8x8 digit classification, with probes of the symmetry-induced
degeneracy of symmetrized training losses."""

from .digits import (Dataset, GrayImage, augment_shifts, invert_dataset,
                     load_bundled_dataset, load_dataset, load_optdigits,
                     render_image, scale_to_unit, split, symmetrize)
from .features import (Identity, Inversion, NeighborProduct, PermutationProduct,
                       PixelPermutation, Rotation90, Shift, Square,
                       apply_feature_map, apply_group, feature_map_from_name,
                       inversion_group, is_closed_group, make_permutation,
                       relative_sign, rotation_group)
from .network import (Layer, Mlp, TrainConfig, TrainResult, TrainingDiverged,
                      backward, cross_entropy_loss, forward, grad_check,
                      init_mlp, predict, softmax, train)
from .persistence import load_model, save_model
from .experiments import (BoundCheckReport, EvalReport, RowSpec, accuracy,
                          bound_check, reproduce_tables, run_row)
from .degeneracy import (CurvatureReport, OrbitScan, SampledLossReport,
                         ToyRotationTask, generator_curvature,
                         generator_curvature_sweep, make_toy_task,
                         orbit_loss_scan, sampled_loss_expectation, train_toy,
                         weight_orbit_invariance)

__version__ = "0.1.0"
