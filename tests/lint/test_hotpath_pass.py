"""HOT500: purity of the bank-scheduler and legality-kernel hot paths."""


class TestSchedulerRoots:
    def test_pure_candidate_selection_is_clean(self, project_of, run_rule):
        project = project_of({
            "bank_scheduler.py": """
                class BankScheduler:
                    def candidate(self, now):
                        best = None
                        for request in self.queue:
                            if best is None or request.key < best.key:
                                best = request
                        return best
            """,
        })
        assert run_rule("HOT500", project) == []

    def test_fstring_in_hot_path_is_flagged(self, project_of, run_rule):
        project = project_of({
            "bank_scheduler.py": """
                class BankScheduler:
                    def candidate(self, now):
                        label = f"bank {self.index}"
                        return label
            """,
        })
        findings = run_rule("HOT500", project)
        assert len(findings) == 1
        assert "f-string" in findings[0].message
        assert "BankScheduler.candidate" in findings[0].message

    def test_fstring_inside_raise_is_exempt(self, project_of, run_rule):
        project = project_of({
            "bank_scheduler.py": """
                class BankScheduler:
                    def candidate(self, now):
                        if now < 0:
                            raise ValueError(f"negative cycle {now}")
                        return None
            """,
        })
        assert run_rule("HOT500", project) == []

    def test_sorted_in_hot_path_is_flagged(self, project_of, run_rule):
        project = project_of({
            "bank_scheduler.py": """
                class BankScheduler:
                    def candidate(self, now):
                        return sorted(self.queue)[0]
            """,
        })
        findings = run_rule("HOT500", project)
        assert len(findings) == 1
        assert "sorted()" in findings[0].message

    def test_helper_reached_through_self_call(self, project_of, run_rule):
        project = project_of({
            "bank_scheduler.py": """
                class BankScheduler:
                    def candidate(self, now):
                        return self._pick(now)

                    def _pick(self, now):
                        print(now)
                        return None
            """,
        })
        findings = run_rule("HOT500", project)
        assert len(findings) == 1
        assert "print() call" in findings[0].message
        assert "BankScheduler._pick" in findings[0].message

    def test_cold_methods_are_not_checked(self, project_of, run_rule):
        project = project_of({
            "bank_scheduler.py": """
                class BankScheduler:
                    def __repr__(self):
                        return f"BankScheduler({self.index})"

                    def debug_dump(self):
                        print(sorted(self.queue))
            """,
        })
        assert run_rule("HOT500", project) == []

    def test_other_files_are_not_checked(self, project_of, run_rule):
        project = project_of({
            "reporting.py": """
                class BankScheduler:
                    def candidate(self, now):
                        return f"formatted {now}"
            """,
        })
        assert run_rule("HOT500", project) == []


class TestLegalityKernels:
    def test_module_mutable_read_is_flagged(self, project_of, run_rule):
        project = project_of({
            "legality.py": """
                _CACHE = {}


                def can_issue(kind, now, state):
                    if kind in _CACHE:
                        return _CACHE[kind]
                    return now >= state.ready_at
            """,
        })
        findings = run_rule("HOT500", project)
        assert findings
        assert all("module-level mutable '_CACHE'" in f.message for f in findings)

    def test_constructor_is_skipped(self, project_of, run_rule):
        project = project_of({
            "legality.py": """
                class Backend:
                    def __init__(self, timings):
                        self.labels = [f"t{i}" for i in timings]
            """,
        })
        assert run_rule("HOT500", project) == []

    def test_module_function_closure(self, project_of, run_rule):
        project = project_of({
            "legality.py": """
                def can_issue(kind, now, state):
                    return _check(kind, now, state)


                def _check(kind, now, state):
                    log.debug(kind)
                    return now >= state.ready_at
            """,
        })
        findings = run_rule("HOT500", project)
        assert len(findings) == 1
        assert "log.debug() call" in findings[0].message


class TestWakeIndex:
    def test_whole_module_is_hot(self, project_of, run_rule):
        project = project_of({
            "wakeindex.py": """
                class WakeIndex:
                    def min_wake(self):
                        return sorted(self._heaps)[0]
            """,
        })
        findings = run_rule("HOT500", project)
        assert len(findings) == 1
        assert "sorted()" in findings[0].message
        assert "WakeIndex.min_wake" in findings[0].message

    def test_constructor_is_skipped(self, project_of, run_rule):
        project = project_of({
            "wakeindex.py": """
                class WakeIndex:
                    def __init__(self, shard_of):
                        self._heaps = [[] for _ in sorted(shard_of)]
            """,
        })
        assert run_rule("HOT500", project) == []


class TestSparseDispatch:
    def test_sparse_step_is_hot(self, project_of, run_rule):
        project = project_of({
            "system.py": """
                class CmpSystem:
                    def _event_step(self):
                        for slot in sorted(self._due):
                            self._tick(slot)
            """,
        })
        findings = run_rule("HOT500", project)
        assert len(findings) == 1
        assert "sorted()" in findings[0].message
        assert "CmpSystem._event_step" in findings[0].message

    def test_helper_reached_from_targeting_root(self, project_of, run_rule):
        project = project_of({
            "system.py": """
                class CmpSystem:
                    def _event_target(self, limit):
                        return self._probe(limit)

                    def _probe(self, limit):
                        print(limit)
                        return limit
            """,
        })
        findings = run_rule("HOT500", project)
        assert len(findings) == 1
        assert "print() call" in findings[0].message
        assert "CmpSystem._probe" in findings[0].message

    def test_non_dispatch_methods_are_cold(self, project_of, run_rule):
        project = project_of({
            "system.py": """
                class CmpSystem:
                    def summary(self):
                        return f"system with {len(self.cores)} cores"
            """,
        })
        assert run_rule("HOT500", project) == []
