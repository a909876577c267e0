"""Malformed values of every declared numeric key exit 2 and name the key.

For each key of ``config.SCHEMA`` whose parser reads numbers (plain or
NAME:ARGS), hypothesis draws non-numeric text, a wrong count of values and,
for float keys, a non-finite value among finite ones.  Every other key keeps
its default, so the drawn value is the config's only fault.
"""

import string

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pwfn.cli import main
from pwfn.config import SCHEMA

GRID = {"n": "8 8 8", "length": "6.3 6.3 6.3"}


def _numeric_keys():
    for kind, sections in SCHEMA.items():
        for section, declared in sections.items():
            families = declared.items() if section == "initial" \
                else [(None, declared)]
            for packet, keys in families:
                for name, key in keys.items():
                    if hasattr(key.parse, "kind") or \
                            hasattr(key.parse, "forms"):
                        yield pytest.param(
                            kind, section, packet, name, key.parse,
                            id=f"{kind}-{packet or section}-{name}")


# No digits and no whitespace: one token that int() never reads and float()
# reads only as nan or inf, which the parser refuses.  "%" and ":" probe
# the INI reader and the NAME:ARGS split.
WORDS = st.text(alphabet=string.ascii_letters + "%_+-.:;/", min_size=1)
NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity",
                              "1e999"])


def _values(kind, count, sep=" "):
    number = st.integers(-10**6, 10**6).map(str) if kind is int \
        else st.floats(allow_nan=False, allow_infinity=False).map(repr)
    return st.lists(number, min_size=count, max_size=count).map(sep.join)


def _wrong_count(kind, count, sep=" ", least=0):
    return st.integers(least, 4).filter(lambda c: c != count).flatmap(
        lambda c: _values(kind, c, sep))


def _one_non_finite(count, sep=" "):
    return st.tuples(st.lists(_values(float, 1), min_size=count - 1,
                              max_size=count - 1),
                     NON_FINITE, st.integers(0, count - 1)).map(
        lambda t: sep.join(t[0][:t[2]] + [t[1]] + t[0][t[2]:]))


def _malformed_numbers(kind, count):
    texts = [WORDS, _wrong_count(kind, count)]
    if kind is float:
        texts.append(_one_non_finite(count))
    return st.one_of(texts)


def _malformed_tagged(forms):
    texts = [WORDS.filter(lambda w: w.partition(":")[0] not in forms)]
    for name, (count, _) in forms.items():
        args = [WORDS] if count == 0 else [
            WORDS, _wrong_count(float, count, ",", least=1),
            _one_non_finite(count, ",")]
        texts += [a.map(lambda w, n=name: f"{n}:{w}") for a in args]
    return st.one_of(texts)


@pytest.mark.parametrize("kind, section, packet, name, parse",
                         list(_numeric_keys()))
@settings(max_examples=8, suppress_health_check=[
    HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_value_exits_2_and_names_key(tmp_path, capsys, data, kind,
                                                section, packet, name,
                                                parse):
    strategy = _malformed_tagged(parse.forms) if hasattr(parse, "forms") \
        else _malformed_numbers(parse.kind, parse.count)
    text = data.draw(strategy, label=name)
    sections = {"scenario": {"kind": kind}}
    if "grid" in SCHEMA[kind]:
        sections["grid"] = dict(GRID)
    if packet:
        sections["initial"] = {"packet": packet}
    sections.setdefault(section, {})[name] = text
    cfg = tmp_path / "case.ini"
    cfg.write_text("".join(
        f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for s, keys in sections.items()))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([kind, "--config", str(cfg), "--out", str(out)]) == 2, text
    assert f"[{section}] {name}" in capsys.readouterr().err, text
    assert not out.exists()
