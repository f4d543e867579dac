"""Hierarchical GSFA: layered nodes with non-overlapping receptive fields.

Every node applies optional weighted PCA, a nonlinear expansion, and
linear GSFA to the data inside its receptive field; all nodes share the
same training graph (the graph encodes labels, which are global to the
sample, not to image regions). Layer k+1 nodes consume the
concatenated outputs of the layer-k nodes they cover. Receptive fields
must tile their input grid exactly; anything else is rejected.
"""

from dataclasses import dataclass, field
from operator import index
from pathlib import Path

import numpy as np

from .errors import ArchitectureError, DimensionError, FormatError, GsfaError
from .serialize import entries_of, read_container, write_container
from .solver import (
    ExpansionSpec,
    GsfaModel,
    PcaModel,
    expand,
    extract_features,
    load_model,
    pca_reduce,
    save_model,
    train_gsfa,
)

NETWORK_MANIFEST_KIND = "hgsfa-network"
NETWORK_MANIFEST_VERSION = 1


@dataclass(frozen=True)
class LayerSpec:
    """One layer: node grid, per-node receptive field, node pipeline.

    ``receptive_field`` is (height, width) in units of the layer's
    input grid: pixels for the first layer, nodes afterwards.
    ``pca_dims`` enables a weighted PCA step before the expansion.
    """

    grid: tuple
    receptive_field: tuple
    expansion: ExpansionSpec = field(default_factory=ExpansionSpec)
    out_dims: int = 1
    pca_dims: int = None

    def to_dict(self):
        return {"grid": list(self.grid),
                "receptive_field": list(self.receptive_field),
                "expansion": self.expansion.to_dict(),
                "out_dims": self.out_dims,
                "pca_dims": self.pca_dims}

    @classmethod
    def from_dict(cls, data):
        pca_dims = data.get("pca_dims")
        return cls(grid=_int_pair(data["grid"]),
                   receptive_field=_int_pair(data["receptive_field"]),
                   expansion=ExpansionSpec.from_dict(data["expansion"]),
                   out_dims=index(data["out_dims"]),
                   pca_dims=None if pca_dims is None else index(pca_dims))


def _int_pair(values):
    first, second = map(index, values)
    return first, second


@dataclass
class LayerReport:
    layer: int
    grid: tuple
    receptive_field: tuple
    input_dim: int
    expanded_dim: int
    output_dim: int


def validate_architecture(specs, input_shape):
    """Check exact tiling and dimension chaining; list per-layer dims.

    ``input_shape`` is the (rows, cols) pixel shape of the input
    images. Returns a list of :class:`LayerReport`; raises
    :class:`ArchitectureError` naming the first offending layer.
    """
    if not specs:
        raise ArchitectureError("network needs at least one layer")
    rows, cols = input_shape
    unit_dim = 1  # values per input-grid cell (1 pixel, then node outputs)
    reports = []
    for k, spec in enumerate(specs):
        grid_r, grid_c = spec.grid
        field_r, field_c = spec.receptive_field
        if grid_r < 1 or grid_c < 1 or field_r < 1 or field_c < 1:
            raise ArchitectureError(f"layer {k}: grid and field must be >= 1")
        if grid_r * field_r != rows or grid_c * field_c != cols:
            raise ArchitectureError(
                f"layer {k}: {grid_r}x{grid_c} nodes with {field_r}x{field_c} "
                f"fields do not tile the {rows}x{cols} input grid exactly")
        input_dim = field_r * field_c * unit_dim
        pre_dim = input_dim
        if spec.pca_dims is not None:
            if not 1 <= spec.pca_dims <= input_dim:
                raise ArchitectureError(
                    f"layer {k}: pca_dims {spec.pca_dims} outside [1, {input_dim}]")
            pre_dim = spec.pca_dims
        expanded_dim = spec.expansion.output_dim(pre_dim)
        if not 1 <= spec.out_dims <= expanded_dim:
            raise ArchitectureError(
                f"layer {k}: out_dims {spec.out_dims} outside [1, {expanded_dim}]")
        reports.append(LayerReport(k, (grid_r, grid_c), (field_r, field_c),
                                   input_dim, expanded_dim, spec.out_dims))
        rows, cols = grid_r, grid_c
        unit_dim = spec.out_dims
    return reports


@dataclass
class NodeModel:
    pca: PcaModel
    gsfa: GsfaModel


@dataclass
class HgsfaNetwork:
    specs: list
    input_shape: tuple
    layers: list  # one dict {(row, col): NodeModel} per layer

    @property
    def output_dim(self):
        return self.specs[-1].out_dims


def _node_input(layer_outputs, spec, row, col):
    """Concatenate the outputs of the nodes covered by node (row, col)."""
    field_r, field_c = spec.receptive_field
    parts = []
    for dr in range(field_r):
        for dc in range(field_c):
            parts.append(layer_outputs[(row * field_r + dr, col * field_c + dc)])
    return np.vstack(parts)


def _first_layer_input(images, spec, row, col):
    field_r, field_c = spec.receptive_field
    patch = images[:, row * field_r:(row + 1) * field_r,
                   col * field_c:(col + 1) * field_c]
    return patch.reshape(images.shape[0], field_r * field_c).T


def _check_images(images, input_shape):
    images = np.asarray(images, dtype=float)
    if images.ndim != 3 or images.shape[1:] != tuple(input_shape):
        raise DimensionError(f"expected (N, H, W) images with (H, W) = "
                             f"{tuple(input_shape)}, got {images.shape}")
    return images


def train_hgsfa(images, graph, specs):
    """Train the network bottom-up on (N, H, W) images.

    Every node trains on its own receptive-field data with the shared
    graph. Solver errors are re-raised annotated with the node's layer
    and grid coordinates.
    """
    input_shape = np.shape(images)[1:]
    images = _check_images(images, input_shape)
    if images.shape[0] != graph.n_samples:
        raise DimensionError(
            f"{images.shape[0]} images but graph has {graph.n_samples} vertices")
    validate_architecture(specs, input_shape)

    network = HgsfaNetwork(list(specs), input_shape, [])
    outputs = None
    for k, spec in enumerate(specs):
        nodes = {}
        new_outputs = {}
        for row in range(spec.grid[0]):
            for col in range(spec.grid[1]):
                if k == 0:
                    node_data = _first_layer_input(images, spec, row, col)
                else:
                    node_data = _node_input(outputs, spec, row, col)
                try:
                    pca = None
                    if spec.pca_dims is not None:
                        pca, node_data = pca_reduce(
                            node_data, graph.vertex_weights, spec.pca_dims)
                    expanded = expand(node_data, spec.expansion)
                    model = train_gsfa(expanded, graph, n_features=spec.out_dims)
                except GsfaError as exc:
                    exc.args = (f"layer {k}, node ({row}, {col}): {exc}",)
                    raise
                nodes[(row, col)] = NodeModel(pca, model)
                new_outputs[(row, col)] = extract_features(model, expanded)
        network.layers.append(nodes)
        outputs = new_outputs
    return network


def network_extract(network, images):
    """Forward pass; returns the top node's J x N feature matrix."""
    images = _check_images(images, network.input_shape)
    outputs = None
    for k, spec in enumerate(network.specs):
        new_outputs = {}
        for row in range(spec.grid[0]):
            for col in range(spec.grid[1]):
                if k == 0:
                    node_data = _first_layer_input(images, spec, row, col)
                else:
                    node_data = _node_input(outputs, spec, row, col)
                node = network.layers[k][(row, col)]
                if node.pca is not None:
                    node_data = node.pca.transform(node_data)
                expanded = expand(node_data, spec.expansion)
                new_outputs[(row, col)] = extract_features(node.gsfa, expanded)
        outputs = new_outputs
    return outputs[(0, 0)]


def save_network(network, directory):
    """Persist as a directory: manifest.json plus one model file per node."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    node_files = []
    for k, (spec, nodes) in enumerate(zip(network.specs, network.layers)):
        for (row, col), node in sorted(nodes.items()):
            name = f"node_L{k}_r{row}_c{col}.json"
            save_model(node.gsfa, directory / name, expansion=spec.expansion,
                       pca=node.pca)
            node_files.append({"layer": k, "row": row, "col": col, "file": name})
    write_container(directory / "manifest.json", NETWORK_MANIFEST_KIND,
                    NETWORK_MANIFEST_VERSION,
                    {"input_shape": list(network.input_shape),
                     "layers": [spec.to_dict() for spec in network.specs],
                     "nodes": node_files})


def load_network(directory):
    directory = Path(directory)
    path = directory / "manifest.json"
    manifest = read_container(path, NETWORK_MANIFEST_KIND,
                              {NETWORK_MANIFEST_VERSION})
    with entries_of(path):
        specs = [LayerSpec.from_dict(d) for d in manifest["layers"]]
        input_shape = _int_pair(manifest["input_shape"])
        files = {(e["layer"], e["row"], e["col"]): directory / e["file"]
                 for e in manifest["nodes"]}
    nodes = [(k, row, col) for k, spec in enumerate(specs)
             for row in range(spec.grid[0]) for col in range(spec.grid[1])]
    if len(files) != len(manifest["nodes"]) or set(files) != set(nodes):
        raise FormatError(f"{path}: nodes must list every node of the layers once")
    layers = [dict() for _ in specs]
    for k, row, col in nodes:
        model, _, pca = load_model(files[k, row, col])
        layers[k][(row, col)] = NodeModel(pca, model)
    return HgsfaNetwork(specs, input_shape, layers)


def save_architecture(specs, path):
    """Write layer specs as a standalone JSON config."""
    write_container(path, "hgsfa-architecture", 1,
                    {"layers": [spec.to_dict() for spec in specs]})


def load_architecture(path):
    data = read_container(path, "hgsfa-architecture", {1})
    with entries_of(path):
        return [LayerSpec.from_dict(d) for d in data["layers"]]
