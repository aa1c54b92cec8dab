"""Bone segmentation and pixel-count volumetry for synthetic µCT phantoms.

Pure numpy/scipy: a small U-Net with hand-written forward and backward
passes, Adam, a deterministic phantom data pipeline over 16-bit PGM files,
and volume calibration from pixel counts against a reference segmentation.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .data import (
    DatasetSplit,
    PhantomSpec,
    encode_one_hot,
    generate_phantom,
    image_to_tensor,
    load_manifest,
    make_dataset,
    read_mask,
    read_pgm,
    split_dataset,
    write_pgm,
)
from .layers import (
    ConvSpec,
    categorical_cross_entropy,
    conv2d_backward,
    conv2d_forward,
    conv2d_forward_naive,
    gradient_check,
    maxpool2_backward,
    maxpool2_forward,
    relu,
    relu_backward,
    sigmoid,
    sigmoid_backward,
    softmax_channel,
    softmax_channel_backward,
    tconv2_backward,
    tconv2_forward,
)
from .metrics import (
    VolumetryReport,
    calibrate_volume,
    confusion,
    count_class_pixels,
    dice,
    pixel_accuracy,
    read_reference,
    write_report,
)
from .optim import AdamState, adam_step, init_adam
from .tensor import argmax_channel
from .train import RunConfig, TrainingResult, parse_config, run_training
from .unet import (
    UNetConfig,
    backward,
    build,
    forward,
    load_checkpoint,
    parameter_count,
    save_checkpoint,
)

# The public names are the imports above: every global that is neither underscored nor a module.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
