import hashlib
import json

import numpy as np
import pytest

import gsfa
from gsfa import (
    ArchitectureError,
    ExpansionSpec,
    FormatError,
    LayerSpec,
    extract_features,
    network_extract,
    train_gsfa,
    train_hgsfa,
    validate_architecture,
)

from conftest import json_by_dumps, write_architecture


def _table_style_specs():
    """8x8 patches with PCA, then two merge layers, like the reference net."""
    return [
        LayerSpec(grid=(8, 8), receptive_field=(8, 8),
                  expansion=ExpansionSpec("zero_eight_expo"),
                  out_dims=40, pca_dims=50),
        LayerSpec(grid=(4, 8), receptive_field=(2, 1),
                  expansion=ExpansionSpec("zero_eight_expo"), out_dims=40),
        LayerSpec(grid=(4, 4), receptive_field=(1, 2),
                  expansion=ExpansionSpec("zero_eight_expo"), out_dims=40),
    ]


def test_validate_table_style_dims():
    reports = validate_architecture(_table_style_specs())
    assert len(reports) == 3
    assert reports[0].input_dim == 64
    assert reports[0].expanded_dim == 100  # PCA to 50, then doubled
    assert reports[1].input_dim == 80      # two nodes x 40 outputs
    assert reports[1].expanded_dim == 160


def test_validate_toy_tiling():
    specs = [LayerSpec(grid=(2, 2), receptive_field=(2, 2), out_dims=1)]
    reports = validate_architecture(specs)
    assert reports[0].input_dim == 4


def test_validate_rejects_non_tiling():
    # layer 0 sets the 6x6 image; layer 1's 2x2 fields cannot tile its 3x3 grid
    specs = [LayerSpec(grid=(3, 3), receptive_field=(2, 2), out_dims=1),
             LayerSpec(grid=(1, 1), receptive_field=(2, 2), out_dims=1)]
    with pytest.raises(ArchitectureError,
                       match="layer 1: 1x1 nodes with 2x2 fields do not tile "
                             "the 3x3 input grid"):
        validate_architecture(specs)
    with pytest.raises(ArchitectureError, match="at least one layer"):
        validate_architecture([])


def test_validate_rejects_dimension_chain_break():
    specs = [
        LayerSpec(grid=(2, 2), receptive_field=(2, 2), out_dims=2),
        LayerSpec(grid=(1, 1), receptive_field=(2, 3), out_dims=1),
    ]
    with pytest.raises(ArchitectureError, match="layer 1"):
        validate_architecture(specs)


def test_validate_rejects_excess_out_dims():
    specs = [LayerSpec(grid=(2, 2), receptive_field=(2, 2), out_dims=9)]
    with pytest.raises(ArchitectureError, match="out_dims"):
        validate_architecture(specs)


def _toy_dataset(rng, n=40, shape=(4, 4)):
    labels = np.repeat(np.linspace(-1, 1, 10), n // 10)
    base = np.outer(np.linspace(0.2, 1.0, shape[0] * shape[1]), labels)
    noise = 0.05 * rng.normal(size=(shape[0] * shape[1], n))
    images = (base + noise).T.reshape(n, *shape)
    graph = gsfa.build_serial_graph(labels, 5)
    return images, labels, graph


def test_train_hgsfa_hashes_the_graph_once(rng, monkeypatch):
    images, _, graph = _toy_dataset(rng, n=60)
    specs = [
        LayerSpec(grid=(2, 2), receptive_field=(2, 2), out_dims=3),
        LayerSpec(grid=(1, 1), receptive_field=(2, 2), out_dims=2),
    ]
    hashes = []
    sha256 = hashlib.sha256

    def counting_sha256(*args):
        hashes.append(args)
        return sha256(*args)

    monkeypatch.setattr(gsfa.graph.hashlib, "sha256", counting_sha256)
    network = train_hgsfa(images, graph, specs)
    trained_on = [node.gsfa.trained_on
                  for layer in network.layers for node in layer.values()]
    assert len(hashes) == 1
    assert len(trained_on) == 5
    assert all(t == graph.fingerprint() for t in trained_on)
    assert len({id(t) for t in trained_on}) == 5
    trained_on[0]["checksum"] = "tampered"
    assert trained_on[1]["checksum"] == graph.fingerprint()["checksum"]


def test_single_full_field_layer_equals_direct_gsfa(rng):
    images, _, graph = _toy_dataset(rng)
    specs = [LayerSpec(grid=(1, 1), receptive_field=(4, 4), out_dims=3)]
    network = train_hgsfa(images, graph, specs)
    net_feats = network_extract(network, images)
    flat = images.reshape(images.shape[0], -1).T
    model = train_gsfa(flat, graph, n_features=3)
    direct = extract_features(model, flat)
    np.testing.assert_allclose(net_feats, direct, atol=1e-10)


def test_two_layer_toy_network_trains(rng):
    images, _, graph = _toy_dataset(rng, n=60)
    specs = [
        LayerSpec(grid=(2, 2), receptive_field=(2, 2), out_dims=3),
        LayerSpec(grid=(1, 1), receptive_field=(2, 2), out_dims=4,
                  expansion=ExpansionSpec("zero_eight_expo")),
    ]
    network = train_hgsfa(images, graph, specs)
    top = network_extract(network, images)
    assert top.shape == (4, 60)
    assert network.gsfa.n_features == 4


def test_top_layer_of_several_nodes_rejected_before_training(rng, monkeypatch):
    images, _, graph = _toy_dataset(rng)
    specs = [LayerSpec(grid=(2, 2), receptive_field=(2, 2), out_dims=2)]
    validate_architecture(specs)  # a valid partial stack

    def refuse(*args, **kwargs):
        raise AssertionError("a node was trained")

    monkeypatch.setattr(gsfa.hierarchy, "train_node", refuse)
    with pytest.raises(ArchitectureError,
                       match="layer 0: a network's top layer must be one node"):
        train_hgsfa(images, graph, specs)


def test_network_extracts_from_the_data_matrix(rng):
    images, _, graph = _toy_dataset(rng)
    specs = [LayerSpec(grid=(2, 2), receptive_field=(2, 2), out_dims=2),
             LayerSpec(grid=(1, 1), receptive_field=(2, 2), out_dims=2)]
    network = train_hgsfa(images, graph, specs)
    data = images.reshape(images.shape[0], -1).T  # one image a column
    assert (network.extract(data).tobytes()
            == network_extract(network, images).tobytes())
    assert network.gsfa is network.layers[1][(0, 0)].gsfa
    with pytest.raises(gsfa.DimensionError, match="layer 0 tiles 4x4 images"):
        network.extract(data[:8])


def test_top_output_constraints(rng):
    images, _, graph = _toy_dataset(rng, n=60)
    specs = [
        LayerSpec(grid=(2, 2), receptive_field=(2, 2), out_dims=3),
        LayerSpec(grid=(1, 1), receptive_field=(2, 2), out_dims=3),
    ]
    network = train_hgsfa(images, graph, specs)
    feats = network_extract(network, images)
    v, q = graph.vertex_weights, graph.q_sum
    assert np.max(np.abs(feats @ v / q)) < 1e-5
    gram = (feats * v) @ feats.T / q
    np.testing.assert_allclose(gram, np.eye(3), atol=1e-5)


def test_single_sample_extraction_matches_batch(rng):
    images, _, graph = _toy_dataset(rng)
    specs = [
        LayerSpec(grid=(2, 2), receptive_field=(2, 2), out_dims=2),
        LayerSpec(grid=(1, 1), receptive_field=(2, 2), out_dims=2),
    ]
    network = train_hgsfa(images, graph, specs)
    batch = network_extract(network, images)
    for idx in (0, 7, 19):
        single = network_extract(network, images[idx:idx + 1])
        np.testing.assert_allclose(single[:, 0], batch[:, idx], atol=1e-12)


def test_permuting_samples_permutes_outputs(rng):
    images, _, graph = _toy_dataset(rng)
    specs = [LayerSpec(grid=(1, 1), receptive_field=(4, 4), out_dims=2)]
    network = train_hgsfa(images, graph, specs)
    perm = rng.permutation(images.shape[0])
    base = network_extract(network, images)
    permuted = network_extract(network, images[perm])
    np.testing.assert_allclose(permuted, base[:, perm], atol=1e-12)


def test_graph_size_mismatch(rng):
    images, _, graph = _toy_dataset(rng, n=40)
    specs = [LayerSpec(grid=(1, 1), receptive_field=(4, 4), out_dims=2)]
    with pytest.raises(gsfa.DimensionError):
        train_hgsfa(images[:20], graph, specs)


def test_solver_error_names_node(rng):
    images, _, graph = _toy_dataset(rng, n=40)
    # constant patch data in layer 0 forces a singularity error
    images = images.copy()
    images[:, :2, :2] = 1.0
    specs = [
        LayerSpec(grid=(2, 2), receptive_field=(2, 2), out_dims=4),
        LayerSpec(grid=(1, 1), receptive_field=(2, 2), out_dims=2),
    ]
    with pytest.raises(gsfa.SingularityError, match=r"layer 0, node \(0, 0\)"):
        train_hgsfa(images, graph, specs)


def test_network_save_load_round_trip(tmp_path, rng):
    images, _, graph = _toy_dataset(rng, n=60)
    specs = [
        LayerSpec(grid=(2, 2), receptive_field=(2, 2), out_dims=3,
                  pca_dims=3),
        LayerSpec(grid=(1, 1), receptive_field=(2, 2), out_dims=3),
    ]
    network = train_hgsfa(images, graph, specs)
    gsfa.save_network(network, tmp_path / "net")
    loaded = gsfa.load_network(tmp_path / "net")
    np.testing.assert_allclose(network_extract(loaded, images),
                               network_extract(network, images), atol=1e-12)


def _saved_toy_network(rng, directory):
    images, _, graph = _toy_dataset(rng, n=40)
    specs = [LayerSpec(grid=(2, 2), receptive_field=(2, 2), out_dims=2),
             LayerSpec(grid=(1, 1), receptive_field=(2, 2), out_dims=2)]
    network = train_hgsfa(images, graph, specs)
    gsfa.save_network(network, directory)
    return network


def test_network_manifest_layout(tmp_path, rng):
    # the manifest is the architecture file; node files are named by position
    network = _saved_toy_network(rng, tmp_path / "net")
    specs = network.specs
    manifest = tmp_path / "net" / "manifest.json"
    assert manifest.read_text() == json_by_dumps({
        "kind": "hgsfa-architecture", "format_version": 1,
        "layers": [spec.to_dict() for spec in specs]})
    write_architecture(specs, tmp_path / "arch.json")
    assert (gsfa.hierarchy.load_architecture(manifest)
            == gsfa.hierarchy.load_architecture(tmp_path / "arch.json") == specs)
    assert sorted(path.name for path in (tmp_path / "net").iterdir()) == [
        "manifest.json", "node_L0_r0_c0.json", "node_L0_r0_c1.json",
        "node_L0_r1_c0.json", "node_L0_r1_c1.json", "node_L1_r0_c0.json"]
    for k, nodes in enumerate(network.layers):
        for (row, col), node in nodes.items():
            gsfa.save_model(node, tmp_path / "node.json")
            assert ((tmp_path / "net" / f"node_L{k}_r{row}_c{col}.json").read_bytes()
                    == (tmp_path / "node.json").read_bytes())


def test_load_network_names_a_missing_node_file(tmp_path, rng):
    _saved_toy_network(rng, tmp_path / "net")
    missing = tmp_path / "net" / "node_L0_r1_c0.json"
    missing.unlink()
    with pytest.raises(FileNotFoundError) as exc:
        gsfa.load_network(tmp_path / "net")
    assert exc.value.filename == str(missing)


@pytest.mark.parametrize("edit, match", [
    (None, "not valid JSON"),
    (lambda d: d.update(kind="hgsfa-network"),
     "expected kind 'hgsfa-architecture', got 'hgsfa-network'"),
    (lambda d: d.pop("layers"), "malformed entry"),
    (lambda d: d["layers"][0].pop("grid"), "malformed entry"),
    (lambda d: d["layers"][1].update(out_dims=2.0), "malformed entry"),
    (lambda d: d["layers"][1].update(out_dims=9), "out_dims 9 outside"),
    (lambda d: d["layers"][0].update(
        expansion={"kind": "quadratic", "degree": 2}), "does not match layer 0"),
    (lambda d: d["layers"][1].update(
        expansion={"kind": "polynomial", "degree": 1}), "does not match layer 1"),
    (lambda d: d["layers"][0].update(pca_dims=4), "does not match layer 0"),
    (lambda d: d["layers"][1].update(out_dims=1), "does not match layer 1"),
    (lambda d: d["layers"][0].update(receptive_field=[4, 4]),
     "does not match layer 0"),
    (lambda d: d["layers"].pop(),
     "layer 0: a network's top layer must be one node"),
], ids=["bad-json", "wrong-kind", "no-layers", "layer-without-grid",
        "float-out-dims", "out-dims-above-expansion", "other-expansion",
        "other-expansion-of-same-size", "pca-without-node-pca",
        "other-out-dims", "other-input-dim", "top-layer-of-four"])
def test_load_network_rejects_malformed_manifest(tmp_path, rng, edit, match):
    _saved_toy_network(rng, tmp_path / "net")
    path = tmp_path / "net" / "manifest.json"
    data = json.loads(path.read_text())
    if edit is not None:
        edit(data)
    path.write_text("{not json" if edit is None else json.dumps(data))
    with pytest.raises(FormatError, match=match) as exc:
        gsfa.load_network(tmp_path / "net")
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("trained_on, match", [
    ([1, 2], "trained_on must be an object"),
    ({"checksum": [1]}, "trained_on must hold n, q_sum, r_sum"),
], ids=["list", "checksum-only"])
def test_load_network_rejects_node_with_malformed_trained_on(tmp_path, rng,
                                                             trained_on, match):
    _saved_toy_network(rng, tmp_path / "net")
    path = tmp_path / "net" / "node_L0_r1_c0.json"
    data = json.loads(path.read_text())
    assert data["trained_on"]["scheme"] == 2
    data["trained_on"] = trained_on
    path.write_text(json.dumps(data))
    with pytest.raises(FormatError, match=match) as exc:
        gsfa.load_network(tmp_path / "net")
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("entry", ["pca", "expansion"])
@pytest.mark.parametrize("value", [False, 0, {}], ids=["false", "zero", "empty"])
def test_load_network_rejects_node_with_falsy_pca_or_expansion(tmp_path, rng,
                                                               entry, value):
    images, _, graph = _toy_dataset(rng, n=60)
    specs = [LayerSpec(grid=(2, 2), receptive_field=(2, 2), out_dims=3,
                       pca_dims=3),
             LayerSpec(grid=(1, 1), receptive_field=(2, 2), out_dims=3)]
    gsfa.save_network(train_hgsfa(images, graph, specs), tmp_path / "net")
    path = tmp_path / "net" / "node_L0_r0_c1.json"
    data = json.loads(path.read_text())
    data[entry] = value
    path.write_text(json.dumps(data))
    with pytest.raises(FormatError, match="malformed entry") as exc:
        gsfa.load_network(tmp_path / "net")
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("pca_dims", [None, 3])
def test_load_network_rejects_node_with_other_pca(tmp_path, rng, pca_dims):
    images, _, graph = _toy_dataset(rng, n=60)
    specs = [LayerSpec(grid=(2, 2), receptive_field=(2, 2), out_dims=3,
                       pca_dims=4),
             LayerSpec(grid=(1, 1), receptive_field=(2, 2), out_dims=3)]
    gsfa.save_network(train_hgsfa(images, graph, specs), tmp_path / "net")
    path = tmp_path / "net" / "manifest.json"
    data = json.loads(path.read_text())
    data["layers"][0]["pca_dims"] = pca_dims
    path.write_text(json.dumps(data))
    with pytest.raises(FormatError, match="does not match layer 0") as exc:
        gsfa.load_network(tmp_path / "net")
    assert "node_L0_r0_c0.json" in str(exc.value)


def test_non_square_net_equals_nodes_on_sliced_patches(rng):
    """Top features of a 2x4-node net on 4x8 images, recomputed by hand.

    Pins the row/col order of the node grid and the (dr, dc, j) order
    in which a node stacks the outputs of the nodes it covers.
    """
    n = 80
    labels = np.repeat(np.linspace(-1, 1, 10), n // 10)
    images = np.tanh(np.outer(np.linspace(0.2, 1.0, 32), labels)
                     + 0.3 * rng.normal(size=(32, n))).T.reshape(n, 4, 8)
    graph = gsfa.build_serial_graph(labels, 5)
    specs = [
        LayerSpec(grid=(2, 4), receptive_field=(2, 2), out_dims=2,
                  expansion=ExpansionSpec("quadratic")),
        LayerSpec(grid=(1, 1), receptive_field=(2, 4), out_dims=3,
                  pca_dims=6, expansion=ExpansionSpec("quadratic")),
    ]
    network = train_hgsfa(images, graph, specs)
    first = {}
    for row in range(2):
        for col in range(4):
            patch = np.vstack([images[:, 2 * row + dr, 2 * col + dc]
                               for dr in range(2) for dc in range(2)])
            first[row, col] = network.layers[0][(row, col)].extract(patch)
    top_input = np.vstack([first[dr, dc][j] for dr in range(2)
                           for dc in range(4) for j in range(2)])
    by_hand = network.layers[1][(0, 0)].extract(top_input)
    np.testing.assert_allclose(network_extract(network, images), by_hand,
                               rtol=0, atol=1e-12)


def test_network_node_files_equal_flat_nodes_on_c_ordered_patches(tmp_path,
                                                                  rng):
    # a node's bits follow its input values, not the layout in which the
    # network slices its receptive field
    images, _, graph = _toy_dataset(rng, n=300)
    specs = [LayerSpec(grid=(2, 2), receptive_field=(2, 2), out_dims=3,
                       expansion=ExpansionSpec("quadratic")),
             LayerSpec(grid=(1, 1), receptive_field=(2, 2), out_dims=2)]
    gsfa.save_network(train_hgsfa(images, graph, specs), tmp_path / "net")
    for row, col in np.ndindex(2, 2):
        patch = np.vstack([images[:, 2 * row + dr, 2 * col + dc]
                           for dr in range(2) for dc in range(2)])
        node, _ = gsfa.train_node(patch, graph, specs[0].expansion,
                                  n_features=3)
        gsfa.save_model(node, tmp_path / "flat.json")
        assert ((tmp_path / "flat.json").read_bytes() == (
            tmp_path / "net" / f"node_L0_r{row}_c{col}.json").read_bytes())


def test_network_features_drive_label_estimation(rng):
    images, labels, graph = _toy_dataset(rng, n=80)
    specs = [
        LayerSpec(grid=(2, 2), receptive_field=(2, 2), out_dims=3),
        LayerSpec(grid=(1, 1), receptive_field=(2, 2), out_dims=3,
                  expansion=ExpansionSpec("zero_eight_expo")),
    ]
    network = train_hgsfa(images, graph, specs)
    feats = network_extract(network, images)
    est = gsfa.fit_linear_scaling(feats[0], labels)
    err = gsfa.rmse(est.predict(feats[0]), labels)
    assert err < 0.5 * gsfa.chance_rmse(labels)


def test_architecture_config_round_trip(tmp_path):
    # the hand-written example of the README: degree and pca_dims omitted
    (tmp_path / "arch.json").write_text("""\
{"kind": "hgsfa-architecture", "format_version": 1,
 "layers": [
  {"grid": [4, 4], "receptive_field": [2, 2],
   "expansion": {"kind": "quadratic"}, "out_dims": 3},
  {"grid": [1, 1], "receptive_field": [4, 4],
   "expansion": {"kind": "identity"}, "out_dims": 2}]}
""")
    loaded = gsfa.hierarchy.load_architecture(tmp_path / "arch.json")
    assert loaded == [
        LayerSpec(grid=(4, 4), receptive_field=(2, 2),
                  expansion=ExpansionSpec("quadratic"), out_dims=3),
        LayerSpec(grid=(1, 1), receptive_field=(4, 4), out_dims=2)]
    assert [spec.to_dict() for spec in loaded] == [
        {"grid": [4, 4], "receptive_field": [2, 2],
         "expansion": {"kind": "quadratic", "degree": 2},
         "out_dims": 3, "pca_dims": None},
        {"grid": [1, 1], "receptive_field": [4, 4],
         "expansion": {"kind": "identity", "degree": 2},
         "out_dims": 2, "pca_dims": None}]
    assert [(r.input_dim, r.expanded_dim) for r in validate_architecture(loaded)
            ] == [(4, 14), (48, 48)]
