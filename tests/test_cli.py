"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestSimulate:
    def test_basic_run(self, capsys):
        code = main([
            "simulate", "--protocol", "drum", "--n", "60",
            "--runs", "20", "--seed", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "mean rounds" in out

    def test_with_attack(self, capsys):
        code = main([
            "simulate", "--protocol", "push", "--n", "60",
            "--alpha", "0.1", "-x", "32", "--runs", "20", "--seed", "2",
        ])
        assert code == 0
        assert "Simulation" in capsys.readouterr().out

    def test_json_output(self, capsys):
        main([
            "simulate", "--n", "60", "--runs", "10", "--seed", "3", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert "mean rounds to 99%" in payload

    def test_fault_injected_json(self, capsys):
        code = main([
            "simulate", "--n", "60", "--runs", "10", "--seed", "1",
            "--faults",
            "crash@5:0.1;partition@8-15:0.4;gilbert:0.01,0.3,0.05,0.25",
            "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["mean residual reliability"] >= 0.99

    def test_churn_json(self, capsys):
        code = main([
            "simulate", "--n", "60", "--runs", "10", "--seed", "1",
            "--fan-out", "4", "--churn", "0.15", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["mean residual reliability"] >= 0.97
        assert payload["mean join latency [rounds]"] >= 1.0
        assert payload["mean view convergence [rounds]"] >= 1.0

    def test_half_specified_attack_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--alpha", "0.1", "--runs", "5"])

    def test_workers_flag(self, capsys):
        base = [
            "simulate", "--n", "60", "--runs", "80", "--seed", "1", "--json",
        ]
        main(base + ["--workers", "1"])
        serial = json.loads(capsys.readouterr().out)
        main(base + ["--workers", "2"])
        parallel = json.loads(capsys.readouterr().out)
        # The parallel layer is deterministic: identical to serial.
        assert parallel == serial

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            main([
                "simulate", "--n", "60", "--runs", "5", "--seed", "1",
                "--workers", "0",
            ])


class TestAnalyze:
    def test_no_attack(self, capsys):
        code = main(["analyze", "--protocol", "drum", "--n", "120"])
        out = capsys.readouterr().out
        assert code == 0
        assert "p_u" in out

    def test_pull_attack_shows_escape(self, capsys):
        main([
            "analyze", "--protocol", "pull", "--n", "120",
            "--alpha", "0.1", "-x", "128", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert "expected source escape rounds" in payload
        assert payload["p_a"] < payload["p_u"]

    def test_refined_flag(self, capsys):
        code = main([
            "analyze", "--protocol", "drum", "--n", "120",
            "--alpha", "0.1", "-x", "64", "--refined", "--rounds", "30",
        ])
        assert code == 0


class TestMeasure:
    def test_small_stream(self, capsys):
        code = main([
            "measure", "--protocol", "drum", "--n", "10",
            "--messages", "40", "--send-rate", "20",
            "--round-ms", "200", "--seed", "4", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["received throughput [msg/s]"] > 0
        assert 0 < payload["delivery ratio"] <= 1.0


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--protocol", "carrier-pigeon"])


class TestSweep:
    def test_basic_rate_sweep(self, capsys):
        code = main([
            "sweep", "--kind", "rate", "--protocols", "drum,push",
            "--values", "0,16", "--n", "50", "--runs", "10", "--seed", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "rate_sweep" in out
        assert "2 computed" not in out  # 4 cells, all computed
        assert "4 computed" in out

    def test_store_makes_second_run_all_hits(self, capsys, tmp_path):
        args = [
            "sweep", "--protocols", "drum", "--values", "0,16",
            "--n", "50", "--runs", "10", "--seed", "2",
            "--store", str(tmp_path), "--json",
        ]
        main(args)
        first = json.loads(capsys.readouterr().out)
        assert first["sweep"]["computed"] == 2
        main(args)
        second = json.loads(capsys.readouterr().out)
        assert second["sweep"]["computed"] == 0
        assert second["sweep"]["cache_hits"] == 2
        assert second["series"] == first["series"]
        # A cold run and a warm run write byte-identical reports.
        store = ["--store", str(tmp_path / "cold")]
        cold, warm = tmp_path / "a.json", tmp_path / "b.json"
        main(args[:-3] + store + ["--out", str(cold)])
        main(args[:-3] + store + ["--out", str(warm)])
        assert cold.read_bytes() == warm.read_bytes()

    def test_out_writes_report_json(self, capsys, tmp_path):
        out_file = tmp_path / "figure.json"
        code = main([
            "sweep", "--kind", "extent", "--protocols", "drum",
            "--values", "0.1,0.2", "-x", "32", "--n", "50",
            "--runs", "10", "--seed", "3", "--out", str(out_file),
        ])
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["name"] == "extent_sweep"
        assert "drum" in payload["series"]

    def test_budget_kind(self, capsys):
        code = main([
            "sweep", "--kind", "budget", "--protocols", "drum",
            "--values", "0.2,0.8", "--budget-per-process", "7.2",
            "--n", "50", "--runs", "10", "--seed", "4", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "budget_sweep"

    def test_churn_kind(self, capsys, tmp_path):
        out_file = tmp_path / "churn.json"
        code = main([
            "sweep", "--kind", "churn", "--protocols", "drum,push",
            "--values", "0,0.2", "--n", "60", "--runs", "5", "--seed", "1",
            "--out", str(out_file),
        ])
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["name"] == "churn_sweep"
        assert payload["x_values"] == [0.0, 0.2]
        for protocol in ("drum", "push"):
            assert min(payload["series"][protocol]) >= 0.97

    def test_empty_protocols_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--protocols", ",", "--values", "0"])

    def test_bad_values_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--protocols", "drum", "--values", "0,zap"])


class TestServe:
    def test_parser_accepts_serve_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "serve", "--port", "7100", "--start",
            "--protocol", "pull", "--n", "64", "--seed", "9",
        ])
        assert args.func.__name__ == "cmd_serve"
        assert args.port == 7100
        assert args.start is True
        assert args.protocol == "pull"
        assert args.n == 64

    def test_serve_runs_until_remote_shutdown(self, monkeypatch, capsys):
        """Drive the real service: autostart, then shut down over TCP."""
        import json as json_mod
        import socket
        import threading
        import time

        from repro.aio.service import GossipService

        def rpc(service, request):
            with socket.create_connection(
                (service.host, service.port), timeout=15
            ) as sock:
                sock.sendall((json_mod.dumps(request) + "\n").encode())
                return json_mod.loads(sock.makefile().readline())

        def shutdown_when_up(service):
            # Wait for the autostarted cluster, then pull the plug.
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                if rpc(service, {"op": "status"}).get("running"):
                    break
                time.sleep(0.05)
            rpc(service, {"op": "shutdown"})

        class NotifyingService(GossipService):
            def start(self, timeout_s=10.0):
                super().start(timeout_s)
                threading.Thread(
                    target=shutdown_when_up, args=(self,), daemon=True
                ).start()

        monkeypatch.setattr(
            "repro.aio.service.GossipService", NotifyingService
        )
        code = main([
            "serve", "--start", "--n", "8", "--seed", "2",
            "--round-ms", "60",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "gossip service listening on" in out
        assert "cluster running: protocol=drum n=8" in out
