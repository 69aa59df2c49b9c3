import pytest

from sowp import units
from sowp.cli import read_config_file
from sowp.errors import ConfigError, SpeciesFileError
from sowp.species import (Species, default_species_path, get_species,
                          load_species)


class TestDefaults:
    def test_shipped_species(self):
        names = {sp.name for sp in load_species(default_species_path())}
        assert names == {"F", "Cl", "Br"}

    def test_f_splitting(self, species_f):
        assert species_f.splitting_cm1 == 404.10

    @pytest.mark.parametrize("name, tau", [("F", 82.5), ("Cl", 37.8), ("Br", 9.05)])
    def test_beat_periods(self, name, tau):
        sp = get_species(name)
        assert float(f"{sp.beat_period_fs:.3g}") == tau

    def test_lookup_case_insensitive(self):
        assert get_species("br").name == "Br"

    def test_unknown_species(self):
        with pytest.raises(SpeciesFileError, match="Xx"):
            get_species("Xx")


class TestInvariants:
    @pytest.mark.parametrize("name", ["F", "Cl", "Br"])
    def test_energy_ordering(self, name):
        sp = get_species(name)
        e32, e12 = sp.e_bound(3), sp.e_bound(1)
        assert e12 < e32 < 0
        assert -e12 == pytest.approx(-e32 + units.cm1_to_hartree(sp.splitting_cm1),
                                     rel=1e-14)

    @pytest.mark.parametrize("name", ["F", "Cl", "Br"])
    def test_kappa_real_positive(self, name):
        sp = get_species(name)
        for j2 in (3, 1):
            assert sp.kappa(j2) > 0
            assert sp.kappa(j2) ** 2 == pytest.approx(-2 * sp.e_bound(j2), rel=1e-14)

    def test_f_kappa_value(self, species_f):
        # kappa = sqrt(2 * 3.4012 eV / hartree)
        assert species_f.kappa(3) == pytest.approx(0.499984, abs=1e-6)

    @pytest.mark.parametrize("name", ["F", "Cl", "Br"])
    def test_beat_period_matches_omega_b(self, name):
        # 1/(c Delta) and 2 pi / omega_b agree to the constants' precision
        sp = get_species(name)
        via_omega = units.au_to_fs(2 * 3.141592653589793 / sp.omega_b)
        assert sp.beat_period_fs == pytest.approx(via_omega, rel=1e-5)


class TestParsing:
    def test_round_trip_file(self, tmp_path):
        path = tmp_path / "species.dat"
        path.write_text(
            "# comment\nname = X\nea_ev = 1.0\nsplitting_cm1 = 100.0\n"
            "b_au = 1.0\nl = 1\n\nname = Y\nea_ev = 2.0 # inline\n"
            "splitting_cm1 = 200.0\nb_au = 0.5\nl = 1\n")
        got = load_species(path)
        assert [sp.name for sp in got] == ["X", "Y"]
        assert got[1].ea_ev == 2.0

    def test_comment_inside_a_record(self, tmp_path):
        # blank lines separate records; a comment line does not
        path = tmp_path / "species.dat"
        path.write_text("name = X\n# source\nea_ev = 1.0\n  # indented\n"
                        "splitting_cm1 = 100.0\nb_au = 1.0\nl = 1\n")
        assert load_species(path) == [Species("X", 1.0, 100.0, 1.0)]

    def test_records_need_a_blank_line_between_them(self, tmp_path):
        block = "name = X\nea_ev = 3.0\nsplitting_cm1 = 100.0\nb_au = 1.0\nl = 1\n"
        path = tmp_path / "two.dat"
        path.write_text(block + "# next\n" + block.replace("X", "Y"))
        with pytest.raises(SpeciesFileError, match="line 7: repeated key 'name'"):
            load_species(path)

    def test_packaged_table(self):
        assert load_species(default_species_path()) == [
            Species("F", 3.4012, 404.10, 0.84),
            Species("Cl", 3.6127, 882.35, 1.35),
            Species("Br", 3.3636, 3685.24, 1.42)]

    def test_unbound_record_rejected(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("name = X\nea_ev = -1.0\nsplitting_cm1 = 100.0\n"
                        "b_au = 1.0\nl = 1\n")
        with pytest.raises(SpeciesFileError, match="ea_ev"):
            load_species(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("name = X\nea_ev 3.0\n")
        with pytest.raises(SpeciesFileError, match="line 2"):
            load_species(path)

    def test_bad_number_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("name = X\nea_ev = abc\nsplitting_cm1 = 100.0\n"
                        "b_au = 1.0\nl = 1\n")
        with pytest.raises(SpeciesFileError, match="line 2"):
            load_species(path)

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("name = X\nea_ev = 3.0\nb_au = 1.0\nl = 1\n")
        with pytest.raises(SpeciesFileError, match="splitting_cm1"):
            load_species(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("name = X\nea_ev = 3.0\nsplitting_cm1 = 100.0\n"
                        "b_au = 1.0\nl = 1\nextra = 7\n")
        with pytest.raises(SpeciesFileError, match="extra"):
            load_species(path)

    def test_duplicate_names_rejected(self, tmp_path):
        block = "name = X\nea_ev = 3.0\nsplitting_cm1 = 100.0\nb_au = 1.0\nl = 1\n"
        path = tmp_path / "dup.dat"
        path.write_text(block + "\n" + block)
        with pytest.raises(SpeciesFileError, match="duplicate"):
            load_species(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpeciesFileError, match="nope.dat"):
            load_species(tmp_path / "nope.dat")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", ["ea_ev", "splitting_cm1", "b_au"])
    def test_non_finite_number_rejected(self, tmp_path, key, value):
        fields = {"ea_ev": "3.0", "splitting_cm1": "100.0", "b_au": "1.0",
                  key: value}
        path = tmp_path / "bad.dat"
        path.write_text("name = X\n" + "".join(
            f"{k} = {v}\n" for k, v in fields.items()) + "l = 1\n")
        with pytest.raises(SpeciesFileError,
                           match=f"^X: {key} must be finite"):
            load_species(path)

    def test_only_l1_supported(self):
        with pytest.raises(SpeciesFileError, match="l=0"):
            Species(name="S", ea_ev=2.0, splitting_cm1=100.0, b_au=1.0, l=0)

    def test_env_var_override(self, tmp_path, monkeypatch):
        path = tmp_path / "mine.dat"
        path.write_text("name = Zz\nea_ev = 3.0\nsplitting_cm1 = 100.0\n"
                        "b_au = 1.0\nl = 1\n")
        monkeypatch.setenv("SOWP_SPECIES_FILE", str(path))
        assert default_species_path() == str(path)
        assert get_species("zz").name == "Zz"


class TestSharedReader:
    """Config and species files go through one key = value reader, so the
    same bad line fails both the same way, naming the file and the line."""

    # reader, its error, a file that is valid once "key = good" is appended,
    # and that key with a good and a bad value
    READERS = {
        "config": (read_config_file, ConfigError, "cycles = 4\n",
                   "n_theta", "17", "6.5"),
        "species": (load_species, SpeciesFileError,
                    "name = X\nea_ev = 3.0\nsplitting_cm1 = 100.0\nb_au = 1.0\n",
                    "l", "1", "one"),
    }
    BAD_LINES = {   # kind -> (lines appended to the valid file, message)
        "no-equals": (["just words"], "expected 'key = value'"),
        "unknown-key": (["colour = blue"], "unknown key 'colour'"),
        "repeated-key": (["{key} = {good}", "{key} = {good}"],
                         "repeated key '{key}'"),
        "bad-value": (["{key} = {bad}"], "'{key}' is not a valid"),
    }

    @pytest.mark.parametrize("kind", sorted(BAD_LINES))
    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_bad_line_names_file_and_line(self, tmp_path, reader, kind):
        read, error, valid, key, good, bad = self.READERS[reader]
        lines, message = self.BAD_LINES[kind]
        lines = [line.format(key=key, good=good, bad=bad) for line in lines]
        path = tmp_path / f"{reader}.txt"
        path.write_text(valid + "\n".join(lines) + "\n")
        with pytest.raises(error) as info:
            read(str(path))
        bad_lineno = valid.count("\n") + len(lines)
        assert f"{path}, line {bad_lineno}:" in str(info.value)
        assert message.format(key=key) in str(info.value)
