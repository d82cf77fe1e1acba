"""vladkit: VLAD encoding of dense local descriptors.

Pipeline pieces: binary file formats and manifests (fileio), synthetic
datasets (synth), PCA whitening (whitening), k-means codebooks (codebook),
descriptor-to-word assignment (assignment), VLAD aggregation (vlad), spatial
pyramids (spm), a linear one-vs-rest classifier (classifier), and the
orchestration layer (pipeline, cli).
"""

from .assignment import weight_matrix
from .classifier import EvalReport, LinearModel, predict, tabulate, train_ovr
from .codebook import Dictionary, KmeansReport, kmeans_init_plusplus, kmeans_train
from .fileio import (
    DatasetManifest,
    FeatureMap,
    load_manifest,
    read_dictionary,
    read_encoding,
    read_feature_map,
    read_model,
    read_whitening,
    save_manifest,
    write_dictionary,
    write_encoding,
    write_feature_map,
    write_model,
    write_whitening,
)
from .pipeline import PipelineConfig, run_bench, run_pipeline
from .spm import PyramidSpec, encode_spm, parse_pyramid
from .synth import SynthSpec, split_manifest, synth_dataset
from .vlad import encode, vlad_aggregate, vlad_normalize
from .whitening import WhiteningTransform, apply_whitening_batch, fit_whitening, l2_normalize

__version__ = "0.1.0"
