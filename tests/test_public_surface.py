import pytest

import qhsd
from qhsd import encoding, interferometry, states

# Names the library does not define: tensor, permute_qubits and random_mixed
# are test oracles (tests/oracles.py); the others had no CLI path.
REMOVED = {
    "EnsembleSpec",
    "ensemble_measure",
    "embed_hypercube",
    "hypercube_scale",
    "max_ball_radius",
    "permute_qubits",
    "random_mixed",
    "tensor",
}


def test_every_exported_name_resolves_once():
    assert len(qhsd.__all__) == len(set(qhsd.__all__))
    assert [name for name in qhsd.__all__ if not hasattr(qhsd, name)] == []


@pytest.mark.parametrize("module", [qhsd, states, encoding, interferometry], ids=lambda m: m.__name__)
def test_removed_names_are_not_defined(module):
    assert sorted(REMOVED & set(vars(module))) == []
