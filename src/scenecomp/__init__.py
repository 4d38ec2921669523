"""Room-level scene composition priors over belief scene graphs.

The pipeline: layered scene graphs are rasterized into per-room, per-class
location heatmaps; a graph-convolutional model predicts the full heatmaps
from partial observations plus object counts (including expected-but-unseen
objects); statistical distances score the predictions; and a layout stage
turns heatmaps into discrete room grids and concrete positions.
"""

__version__ = "0.1.0"

from .catalog import ClassCatalog, default_catalog
from .graphs import (
    SceneGraph,
    SceneNode,
    augment,
    build_graph,
    children_of,
    load_graph,
    make_belief_graph,
    rooms_of,
    save_graph,
)
from .raster import HeatmapSet, ObjectCounts, rasterize
from .dataset import (
    BsgSample,
    SceneTemplate,
    build_sample,
    default_templates,
    draw_masked,
    generate_synthetic_scene,
    make_sample,
    split_dataset,
    synthetic_dataset,
)
from .ontology import Ontology, class_affinity, default_ontology, load_ontology
from .nn import ModelConfig, grad_check
from .model import TrainConfig, evaluate_model, new_model, predict, predict_many, train
from .metrics import energy_grid, four_moments, frobenius_diff, wasserstein_grid
from .layout import extract_layout, grid_to_world, place_blind_nodes
