"""Hierarchical GSFA: layered nodes with non-overlapping receptive fields.

Every node applies optional weighted PCA, a nonlinear expansion, and
linear GSFA to the data inside its receptive field; all nodes share the
same training graph (the graph encodes labels, which are global to the
sample, not to image regions). Layer k+1 nodes consume the
concatenated outputs of the layer-k nodes they cover. Receptive fields
must tile their input grid exactly, and the top layer of a network is
one node; anything else is rejected.
"""

from dataclasses import dataclass, field
from operator import index
from pathlib import Path

import numpy as np

from .errors import ArchitectureError, DimensionError, FormatError, GsfaError
from .serialize import entries_of, read_container, write_container
from .solver import ExpansionSpec, load_model, save_model, train_node

ARCHITECTURE_KIND = "hgsfa-architecture"
ARCHITECTURE_VERSION = 1


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
    """A node's input dimension and that of its expansion, for one layer."""

    input_dim: int
    expanded_dim: int


def _image_shape(specs):
    """(H, W) pixels of the images a network reads: layer 0's grid x field."""
    if not specs:
        raise ArchitectureError("network needs at least one layer")
    (grid_r, grid_c), (field_r, field_c) = specs[0].grid, specs[0].receptive_field
    return grid_r * field_r, grid_c * field_c


def validate_architecture(specs):
    """Check exact tiling and dimension chaining; list per-layer dims.

    Layer 0 tiles the images (:func:`_image_shape`), each later layer
    the node grid below it. Returns a list of :class:`LayerReport`;
    raises :class:`ArchitectureError` naming the first offending layer.
    """
    rows, cols = _image_shape(specs)
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
        reports.append(LayerReport(input_dim, expanded_dim))
        rows, cols = grid_r, grid_c
        unit_dim = spec.out_dims
    return reports


def as_images(data, specs):
    """(N, H, W) images of an I x N matrix; H x W are the pixels layer 0 tiles.

    The specs are validated first, so a malformed layer is named before
    any mismatch of the data's shape.
    """
    validate_architecture(specs)
    height, width = _image_shape(specs)
    if data.ndim != 2 or data.shape[0] != height * width:
        raise DimensionError(f"layer 0 tiles {height}x{width} images, so the data "
                             f"needs {height * width} rows; got shape {data.shape}")
    return data.T.reshape(-1, height, width)


@dataclass
class HgsfaNetwork:
    specs: list
    layers: list  # one dict {(row, col): GsfaNode} per layer

    def __post_init__(self):
        if tuple(self.specs[-1].grid) != (1, 1):
            raise ArchitectureError(f"layer {len(self.specs) - 1}: a network's "
                                    "top layer must be one node")

    @property
    def gsfa(self):
        """The top node's GsfaModel: the network's deltas and trained_on."""
        return self.layers[-1][(0, 0)].gsfa

    def extract(self, data):
        """Features of an I x N matrix of flattened images; returns J x N."""
        return network_extract(self, as_images(data, self.specs))


def _node_inputs(cells, spec):
    """Yield (row, col, input) for every node of a layer.

    ``cells`` is the layer's (N, rows, cols, dim) input grid: the images
    as ``images[..., None]``, then the previous layer's outputs. A
    node's input is its field's cells in (dr, dc, j) order, as a
    (field_r * field_c * dim) x N matrix.
    """
    n = cells.shape[0]
    field_r, field_c = spec.receptive_field
    for row in range(spec.grid[0]):
        for col in range(spec.grid[1]):
            patch = cells[:, row * field_r:(row + 1) * field_r,
                          col * field_c:(col + 1) * field_c]
            yield row, col, patch.reshape(n, -1).T


def _forward(network, images, node_output):
    """Run images through the layers; returns the top node's J x N features.

    ``node_output(k, row, col, node_input)`` returns the J x N output of
    node (row, col) of layer k for its input.
    """
    images = np.asarray(images, dtype=float)
    shape = _image_shape(network.specs)
    if images.ndim != 3 or images.shape[1:] != shape:
        raise DimensionError(f"expected (N, H, W) images with (H, W) = "
                             f"{shape}, got {images.shape}")
    cells = images[..., None]
    for k, spec in enumerate(network.specs):
        outputs = np.empty((cells.shape[0], *spec.grid, spec.out_dims))
        for row, col, node_input in _node_inputs(cells, spec):
            outputs[:, row, col] = node_output(k, row, col, node_input).T
        cells = outputs
    # C order, as the top node's own extract returns it
    return np.ascontiguousarray(cells[:, 0, 0].T)


def train_hgsfa(images, graph, specs):
    """Train the network bottom-up on (N, H, W) images.

    Every node trains on its own receptive-field data with the shared
    graph. Solver errors are re-raised annotated with the node's layer
    and grid coordinates.
    """
    validate_architecture(specs)
    network = HgsfaNetwork(list(specs), [{} for _ in specs])

    def train(k, row, col, node_input):
        if node_input.shape[1] != graph.n_samples:
            raise DimensionError(f"{node_input.shape[1]} images but graph has "
                                 f"{graph.n_samples} vertices")
        spec = network.specs[k]
        try:
            node, features = train_node(node_input, graph, spec.expansion,
                                        n_features=spec.out_dims,
                                        pca_dims=spec.pca_dims)
        except GsfaError as exc:
            exc.args = (f"layer {k}, node ({row}, {col}): {exc}",)
            raise
        network.layers[k][(row, col)] = node
        return features

    _forward(network, images, train)
    return network


def network_extract(network, images):
    """Forward pass; returns the top node's J x N feature matrix."""
    return _forward(network, images, lambda k, row, col, node_input:
                    network.layers[k][(row, col)].extract(node_input))


def _node_file(k, row, col):
    """File name of node (row, col) of layer k in a network directory."""
    return f"node_L{k}_r{row}_c{col}.json"


def save_network(network, directory):
    """Persist as a directory: the architecture file plus one model file per node."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for k, nodes in enumerate(network.layers):
        for (row, col), node in nodes.items():
            save_model(node, directory / _node_file(k, row, col))
    write_container(directory / "manifest.json", ARCHITECTURE_KIND,
                    ARCHITECTURE_VERSION,
                    {"layers": [spec.to_dict() for spec in network.specs]})


def load_network(directory):
    """Read a network directory; checks the manifest and every node file.

    The manifest is an architecture file (:func:`load_architecture`)
    whose layers must chain (:func:`validate_architecture`) up to one
    top node, and each node file must agree with its layer: the same
    expansion, a PCA to ``pca_dims`` exactly when the layer has one,
    and the layer's input and output dimensions. Any mismatch is a
    FormatError naming the file; a missing node file is an OSError.
    """
    directory = Path(directory)
    path = directory / "manifest.json"
    specs = load_architecture(path)
    try:
        reports = validate_architecture(specs)
        network = HgsfaNetwork(specs, [{} for _ in specs])
    except ArchitectureError as exc:
        raise FormatError(f"{path}: {exc}") from None
    for k, (spec, report) in enumerate(zip(specs, reports)):
        for row, col in np.ndindex(*spec.grid):
            node_path = directory / _node_file(k, row, col)
            node = load_model(node_path)
            pca_shape = None if node.pca is None else node.pca.components.shape
            if (node.expansion != spec.expansion
                    or pca_shape != (None if spec.pca_dims is None
                                     else (report.input_dim, spec.pca_dims))
                    or node.gsfa.projection.shape
                    != (report.expanded_dim, spec.out_dims)):
                raise FormatError(
                    f"{node_path}: node does not match layer {k} of "
                    f"{path} (expansion, pca_dims, input or output dimensions)")
            network.layers[k][(row, col)] = node
    return network


def load_architecture(path):
    """Layer specs of an ``hgsfa-architecture`` file (a config or a manifest)."""
    data = read_container(path, ARCHITECTURE_KIND, {ARCHITECTURE_VERSION})
    with entries_of(path):
        return [LayerSpec.from_dict(d) for d in data["layers"]]
