import pickle

from sparsebss import errors
from sparsebss.errors import (
    ClusterFormationFailedError,
    NoConsecutivePairError,
    SparseBssError,
)


def all_error_classes():
    found, pending = [SparseBssError], [SparseBssError]
    while pending:
        for sub in pending.pop().__subclasses__():
            found.append(sub)
            pending.append(sub)
    return found


def example(cls):
    if issubclass(cls, ClusterFormationFailedError):
        return cls(2, errors.EmptyClusterError("AND left nothing"))
    if issubclass(cls, NoConsecutivePairError):
        return cls("no consecutive accepted pair", iteration=1)
    return cls(f"{cls.__name__} example")


def test_every_error_class_survives_pickling():
    classes = all_error_classes()
    assert ClusterFormationFailedError in classes and NoConsecutivePairError in classes
    for cls in classes:
        original = example(cls)
        again = pickle.loads(pickle.dumps(original))
        assert type(again) is cls
        assert str(again) == str(original)
        assert getattr(again, "iteration", None) == getattr(original, "iteration", None)
        cause, cause_again = getattr(original, "cause", None), getattr(again, "cause", None)
        assert type(cause_again) is type(cause)
        assert str(cause_again) == str(cause)

