import pickle

import pytest

from hybridlg import errors

#: constructor arguments of the errors that take more than a message
_ARGUMENTS = {
    errors.TrajectoryExtinguishedError: [(1e-300, "branch + at t"), (None,),
                                         (0.0, "")],
    errors.IntegrationDivergedError: [(7, "state=array([nan])"), (0,)],
}


def _every_error():
    found, todo = [], [errors.HybridLGError]
    while todo:
        kind = todo.pop()
        found.append(kind)
        todo.extend(kind.__subclasses__())
    return found


@pytest.mark.parametrize("kind", _every_error(), ids=lambda kind: kind.__name__)
def test_every_error_survives_a_pickle_round_trip(kind):
    # a grid-map chunk's error crosses the process boundary this way
    for arguments in _ARGUMENTS.get(kind, [("a message",)]):
        error = kind(*arguments)
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is kind
        assert str(copy) == str(error)
        assert copy.args == error.args
        assert vars(copy) == vars(error)
