"""Tests for the repro-experiments command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_a_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_knows_all_commands():
    parser = build_parser()
    for command in ("list-backends", "fig3", "table1", "fig4", "appendix", "timeseries"):
        args = parser.parse_args([command])
        assert args.command == command


def test_appendix_command_prints_walkthrough(capsys):
    exit_code = main(["appendix", "--shots", "200", "--backend", "exact"])
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "Appendix A worked example" in captured
    assert "β̃_1" in captured or "betti" in captured.lower()


def test_fig3_command_reduced_grid(capsys):
    exit_code = main(
        ["fig3", "--complexes", "2", "--sizes", "5", "--shots", "100", "--precision", "1", "3"]
    )
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "n = 5" in captured
    assert "Trend summary" in captured


def test_table1_command_reduced(capsys):
    exit_code = main(["table1", "--rows", "24", "--healthy", "8", "--precision", "1", "3"])
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "Precision qubits" in captured
    assert "Reference" in captured


def test_fig4_command_reduced(capsys):
    exit_code = main(["fig4", "--rows", "24", "--healthy", "8", "--scales", "3", "--repetitions", "2"])
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "grouping scale" in captured


def test_timeseries_command_reduced(capsys):
    exit_code = main(["timeseries", "--windows", "4", "--window-length", "300", "--stride", "24", "--classical"])
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "validation accuracy" in captured


def test_list_backends_command(capsys):
    from repro.core.backends import available_backends

    exit_code = main(["list-backends"])
    captured = capsys.readouterr().out
    assert exit_code == 0
    for name in available_backends():
        assert name in captured


def test_list_backends_table_shows_capabilities(capsys):
    """The listing is a table: the one operator format and noise support per backend."""
    main(["list-backends"])
    out = capsys.readouterr().out
    lines = out.splitlines()
    header = lines[1]
    for column in ("name", "format", "noise", "description"):
        assert column in header
    rows = {line.split()[0]: line.split(None, 3) for line in lines[2:] if line.strip()}
    assert rows["sparse-exact"][1:3] == ["sparse", "no"]
    assert rows["stochastic-trace"][1:3] == ["sparse", "no"]
    assert rows["exact"][1:3] == ["dense", "no"]
    assert rows["trotter"][1:3] == ["dense", "yes"]
    assert rows["statevector"][1:3] == ["dense", "yes"]
    # Column positions line up with the header (it really is a table).
    exact_row = next(line for line in lines[2:] if line.split()[0] == "exact")
    assert exact_row.index("dense") == header.index("format")


def test_stochastic_trace_backend_reachable_from_cli(capsys):
    exit_code = main(["appendix", "--shots", "200", "--backend", "stochastic-trace"])
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "backend=stochastic-trace" in captured


def test_appendix_accepts_any_registered_backend(capsys):
    exit_code = main(["appendix", "--shots", "100", "--backend", "sparse-exact"])
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "backend=sparse-exact" in captured


def test_appendix_noisy_density_with_noise_flags(capsys):
    exit_code = main(
        [
            "appendix",
            "--shots", "100",
            "--backend", "statevector",
            "--circuit-engine", "ptm",
            "--noise-channel", "depolarizing",
            "--noise-strength", "0.02",
        ]
    )
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "backend=statevector" in captured


def test_parsers_accept_backend_and_noise_flags():
    parser = build_parser()
    args = parser.parse_args(
        ["table1", "--backend", "sparse-exact", "--noise-channel", "bit-flip", "--noise-strength", "0.1"]
    )
    assert args.backend == "sparse-exact"
    assert args.noise_channel == "bit-flip"
    assert args.noise_strength == 0.1
    args = parser.parse_args(["fig3", "--backend", "sparse-exact"])
    assert args.backend == "sparse-exact"
    args = parser.parse_args(
        ["timeseries", "--backend", "statevector", "--circuit-engine", "ptm"]
    )
    assert args.backend == "statevector"
    assert args.circuit_engine == "ptm"
    # The choices are the config's engines; the oracle simulations are not routes.
    for removed in ("density", "purified"):
        with pytest.raises(SystemExit):
            parser.parse_args(["timeseries", "--circuit-engine", removed])


def test_json_flag_present_on_experiment_commands():
    parser = build_parser()
    for command in ("fig3", "table1", "appendix", "timeseries"):
        args = parser.parse_args([command, "--json"])
        assert args.json is True
        args = parser.parse_args([command])
        assert args.json is False


def test_appendix_json_emits_valid_envelope(capsys):
    import json

    from repro.api import EstimationResult

    exit_code = main(["appendix", "--shots", "200", "--backend", "exact", "--json"])
    captured = capsys.readouterr().out
    assert exit_code == 0
    data = json.loads(captured)
    EstimationResult.validate_dict(data)
    assert data["kind"] == "experiment"
    assert data["request"]["experiment"] == "appendix"
    assert data["payload"]["exact_betti"] == 1
    assert data["payload"]["estimate"]["backend"] == "exact"
    assert data["provenance"]["backend"] == "exact"


def test_timeseries_json_emits_valid_envelope(capsys):
    import json

    from repro.api import EstimationResult

    exit_code = main(
        ["timeseries", "--windows", "3", "--window-length", "200", "--stride", "24", "--classical", "--json"]
    )
    captured = capsys.readouterr().out
    assert exit_code == 0
    data = json.loads(captured)
    EstimationResult.validate_dict(data)
    assert 0.0 <= data["payload"]["validation_accuracy"] <= 1.0


def test_fig3_json_emits_valid_envelope(capsys):
    import json

    from repro.api import EstimationResult

    exit_code = main(
        ["fig3", "--complexes", "2", "--sizes", "5", "--shots", "100", "--precision", "1", "--json"]
    )
    captured = capsys.readouterr().out
    assert exit_code == 0
    data = json.loads(captured)
    EstimationResult.validate_dict(data)
    assert "n=5,shots=100,t=1" in data["payload"]["errors"]


def test_table1_json_emits_valid_envelope(capsys):
    import json

    from repro.api import EstimationResult

    exit_code = main(["table1", "--rows", "16", "--healthy", "6", "--precision", "2", "--json"])
    captured = capsys.readouterr().out
    assert exit_code == 0
    data = json.loads(captured)
    EstimationResult.validate_dict(data)
    assert data["payload"]["rows"][0]["precision_qubits"] == 2


def test_json_and_text_reports_agree(capsys):
    """The text report is exactly the payload's 'report' field."""
    import json

    main(["appendix", "--shots", "150", "--backend", "exact"])
    text = capsys.readouterr().out
    main(["appendix", "--shots", "150", "--backend", "exact", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert data["payload"]["report"] + "\n" == text
