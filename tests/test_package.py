import types

import tmcc_qkd


def test_all_lists_exactly_the_reexported_names():
    public = {
        name
        for name, value in vars(tmcc_qkd).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(tmcc_qkd.__all__) == sorted(public)
