//! Integration tests for the full forensic pipeline: dumps captured by the
//! framework feed the Volatility-style plugins, diffs, and reports, with
//! results cross-checked against ground truth.

use crimes::modules::{BlacklistScanModule, CanaryScanModule};
use crimes::{Crimes, CrimesConfig, Detection};
use crimes_forensics::{plugins, DumpDiff, DumpKind, MemoryDump};
use crimes_vm::{Guest, TcpState, Vm, PAGE_SIZE};
use crimes_vmi::Symbols;
use crimes_workloads::attacks;

fn guest(seed: u64) -> Vm {
    let mut b = Vm::builder();
    b.pages(4096).seed(seed);
    b.build()
}

fn protected(seed: u64) -> Crimes {
    let mut cfg = CrimesConfig::builder();
    cfg.epoch_interval_ms(50);
    Crimes::protect(guest(seed), cfg.build().expect("valid config")).expect("protect")
}

#[test]
fn incident_dumps_feed_every_plugin() {
    let mut c = protected(30);
    c.register_module(Box::new(BlacklistScanModule::bundled()));
    // A helper present in both dumps, with a socket, a file and a module
    // of its own for the table sweeps to find.
    let helper = c.vm_mut().spawn_process("helper", 1000, 2).unwrap();
    c.vm_mut()
        .open_socket(helper, 6, 0x7f00_0001, 8443, 0, 0, TcpState::Listen)
        .unwrap();
    c.vm_mut().open_file(helper, "/var/log/helper.log").unwrap();
    c.vm_mut().load_module("helper_lkm", 0x2000).unwrap();
    assert!(c.run_epoch(|_, _| Ok(())).unwrap().is_committed());
    c.run_epoch(|vm, _| {
        attacks::inject_malware_launch(vm, "keylogd")?;
        Ok(())
    })
    .unwrap();
    let analysis = c.investigate().unwrap();

    for dump in [&analysis.dumps.last_good, &analysis.dumps.audit_failure] {
        let kind = dump.kind();
        let attacked = kind == DumpKind::AuditFailure;
        let session = dump.open_session().unwrap();

        let listed = plugins::pslist(&session, dump).unwrap();
        assert!(
            listed.iter().any(|t| t.pid == helper && t.comm == "helper"),
            "{kind:?}"
        );
        assert_eq!(
            listed.iter().any(|t| t.comm == "keylogd"),
            attacked,
            "{kind:?}"
        );
        assert!(
            plugins::psscan(dump)
                .iter()
                .any(|s| s.task.pid == helper && !s.freed),
            "{kind:?}"
        );
        let rows = plugins::psxview(&session, dump).unwrap();
        let row = rows.iter().find(|r| r.pid == helper).expect("helper row");
        assert!(
            row.in_pslist && row.in_psscan && row.in_pid_hash,
            "{kind:?}"
        );
        assert!(!rows.iter().any(|r| r.is_suspicious()), "{kind:?}");

        let image = plugins::procdump(&session, dump, helper).unwrap();
        assert_eq!(image.len(), 2 * PAGE_SIZE, "{kind:?}");

        let sockets = plugins::netscan(&session, dump).unwrap();
        assert!(
            sockets
                .iter()
                .any(|s| s.pid == helper && s.local_endpoint() == "127.0.0.1:8443"),
            "{kind:?}"
        );
        assert_eq!(sockets.len(), if attacked { 2 } else { 1 }, "{kind:?}");
        let files = plugins::handles(&session, dump, Some(helper)).unwrap();
        let paths: Vec<&str> = files.iter().map(|f| f.path.as_str()).collect();
        assert_eq!(paths, ["/var/log/helper.log"], "{kind:?}");
        let modules = plugins::modscan(&session, dump).unwrap();
        assert!(
            modules.iter().any(|m| m.module.name == "helper_lkm"),
            "{kind:?}"
        );
    }
    c.rollback_and_resume().unwrap();
}

#[test]
fn diff_between_incident_dumps_isolates_the_malware() {
    let mut c = protected(31);
    c.register_module(Box::new(BlacklistScanModule::bundled()));
    // Benign background process exists in both dumps.
    c.vm_mut().spawn_process("postgres", 26, 4).unwrap();
    assert!(c.run_epoch(|_, _| Ok(())).unwrap().is_committed());
    c.run_epoch(|vm, _| {
        attacks::inject_malware_launch(vm, "botnet_agent")?;
        Ok(())
    })
    .unwrap();
    let analysis = c.investigate().unwrap();

    let diff = &analysis.diff;
    assert_eq!(diff.new_tasks.len(), 1);
    assert_eq!(diff.new_tasks[0].comm, "botnet_agent");
    assert!(diff.gone_tasks.is_empty());
    assert_eq!(diff.new_sockets.len(), 1);
    assert_eq!(diff.new_files.len(), 3);
    // postgres is in both dumps, so it never shows in the diff.
    assert!(!diff.new_tasks.iter().any(|t| t.comm == "postgres"));
    c.rollback_and_resume().unwrap();
}

#[test]
fn attack_instant_dump_shows_corrupted_canary() {
    let mut c = protected(32);
    let secret = c.vm().canary_secret();
    c.register_module(Box::new(CanaryScanModule::new(secret)));
    let pid = c.vm_mut().spawn_process("victim", 1000, 16).unwrap();
    // Allocate the victim object during the clean epoch, so its intact
    // canary is captured by the committed checkpoint.
    let obj = c.vm_mut().malloc(pid, 64).unwrap();
    assert!(c.run_epoch(|_, _| Ok(())).unwrap().is_committed());
    c.run_epoch(|vm, _| {
        vm.write_user(pid, obj, &[0x41u8; 72], 0xbad)?; // 8-byte overrun
        Ok(())
    })
    .unwrap();
    let analysis = c.investigate().unwrap();

    // Extract the violation details.
    let Detection::CanaryViolations(violations) = &analysis.findings[0].detection else {
        panic!("wrong detection kind");
    };
    let v = &violations[0];

    // In the last-good dump the canary is intact…
    let good = &analysis.dumps.last_good;
    let session = good.open_session().unwrap();
    let canary_gva = Guest::new(v.canary_gva);
    let gpa = session.translate_user(v.pid, canary_gva, 8).unwrap();
    let bytes = good.memory().peek_array::<8>(gpa).unwrap();
    assert!(bytes == secret, "canary intact at the clean checkpoint");

    // …and trampled in both the failure and attack-instant dumps.
    for dump in [
        &analysis.dumps.audit_failure,
        analysis.dumps.attack_instant.as_ref().unwrap(),
    ] {
        let session = dump.open_session().unwrap();
        let gpa = session.translate_user(v.pid, canary_gva, 8).unwrap();
        let bytes = dump.memory().peek_array::<8>(gpa).unwrap();
        assert!(bytes == [0x41u8; 8], "trampled in {:?}", dump.kind());
    }
    c.rollback_and_resume().unwrap();
}

#[test]
fn psscan_sees_through_rootkit_in_failure_dump() {
    let mut c = protected(33);
    c.register_module(Box::new(crimes::modules::HiddenProcessModule::new()));
    c.run_epoch(|vm, _| {
        attacks::inject_rootkit_hide(vm, "rkhide")?;
        Ok(())
    })
    .unwrap();
    let analysis = c.investigate().unwrap();
    let dump = &analysis.dumps.audit_failure;
    let session = dump.open_session().unwrap();

    // pslist is blind; psscan and psxview are not.
    assert!(!plugins::pslist(&session, dump)
        .unwrap()
        .iter()
        .any(|t| t.comm == "rkhide"));
    assert!(plugins::psscan(dump)
        .iter()
        .any(|s| s.task.comm == "rkhide" && !s.freed));
    let rows = plugins::psxview(&session, dump).unwrap();
    let row = rows.iter().find(|r| r.comm == "rkhide").unwrap();
    assert!(row.is_suspicious());
    c.rollback_and_resume().unwrap();
}

#[test]
fn standalone_dumps_work_without_the_framework() {
    // The forensics crate is usable on ad-hoc dumps, library-style.
    let mut vm = guest(34);
    let pid = vm.spawn_process("standalone", 0, 4).unwrap();
    vm.open_socket(pid, 6, 0x7f00_0001, 8443, 0, 0, TcpState::Listen)
        .unwrap();
    let symbols = Symbols::parse(vm.system_map()).unwrap();
    let dump = MemoryDump::from_vm(&vm, &symbols, DumpKind::Adhoc);
    let session = dump.open_session().unwrap();

    let socks = plugins::netscan(&session, &dump).unwrap();
    assert_eq!(socks.len(), 1);
    assert_eq!(socks[0].local_endpoint(), "127.0.0.1:8443");

    let image = plugins::procdump(&session, &dump, pid).unwrap();
    assert_eq!(image.len(), 4 * 4096);

    // Two ad-hoc dumps diff cleanly.
    let dump2 = MemoryDump::from_vm(&vm, &symbols, DumpKind::Adhoc);
    assert!(DumpDiff::between(&dump, &dump2).unwrap().is_empty());
}

#[test]
fn report_sections_cover_all_findings() {
    let mut c = protected(35);
    let secret = c.vm().canary_secret();
    c.register_module(Box::new(CanaryScanModule::new(secret)));
    c.register_module(Box::new(BlacklistScanModule::bundled()));
    let pid = c.vm_mut().spawn_process("victim", 1000, 16).unwrap();
    assert!(c.run_epoch(|_, _| Ok(())).unwrap().is_committed());

    // A combined attack: overflow AND malware in the same epoch.
    c.run_epoch(|vm, _| {
        attacks::inject_heap_overflow(vm, pid, 32, 8)?;
        attacks::inject_malware_launch(vm, "xmrig")?;
        Ok(())
    })
    .unwrap();
    let analysis = c.investigate().unwrap();
    assert_eq!(analysis.findings.len(), 2);
    let text = analysis.report.to_text();
    assert!(text.contains("Buffer Overflow"));
    assert!(text.contains("Malware detected"));
    assert!(text.contains("xmrig"));
    assert!(text.contains("Checkpoint Diff"));
    c.rollback_and_resume().unwrap();
}
