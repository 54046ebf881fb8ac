import wignerlab
from wignerlab import kernels, montecarlo, oracles, sampling


def test_exports_are_the_modules_public_names():
    modules = (kernels, sampling, montecarlo, oracles)
    names = [name for module in modules for name in module.__all__]
    assert wignerlab.__all__ == [*names, "__version__"]
    assert len(set(names)) == len(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(wignerlab, name) is getattr(module, name)
    assert wignerlab.check_state is montecarlo.check_state
