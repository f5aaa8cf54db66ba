//! Seeded negative fixture for `cargo xtask lint` — every rule must fire
//! on this file. Lives under `xtask/fixtures/`, which the main lint walk
//! skips; only the fixture test points the linter here.

use std::sync::Mutex; // rule: sync-facade

fn data_path(m: &Mutex<Vec<u8>>) -> Result<u8, jiffy_common::JiffyError> {
    let first = m.lock().unwrap().first().copied(); // rule: no-unwrap
    let v = first.expect("nonempty"); // rule: no-unwrap (undocumented expect)
    if v == 0 {
        // rule: error-taxonomy — a controller may not mint transport faults.
        return Err(jiffy_common::JiffyError::Unavailable("srv-0".into()));
    }
    Ok(v)
}

fn dispatch(req: ControlRequest) -> u32 {
    match req {
        ControlRequest::RegisterJob { .. } => 1,
        _ => 0, // rule: exhaustive-dispatch — bare catch-all hides new variants
    }
}

fn ack_without_journal(req: ControlRequest) -> Result<ControlResponse, ()> {
    match req {
        ControlRequest::CreatePrefix { .. } => {
            // rule: journal-before-ack — the mutation is acked with no
            // journal record; a crash here would lose it.
            Ok(ControlResponse::Ack)
        }
        ControlRequest::AdoptJob { .. } => {
            // rule: journal-before-ack — a router arm minting its own ack
            // must forward through dispatch_journaled (or journal) first.
            Ok(ControlResponse::Ack)
        }
        ControlRequest::GetStats => Ok(ControlResponse::Ack), // read-only: exempt
        other => forward(other),
    }
}

fn internal_probe(conn: &Conn) -> Result<Envelope, ()> {
    conn.call(Envelope::DataReq {
        id: 0, // rule: internal-rid — spell the sentinel INTERNAL_RID
        req: DataRequest::Ping,
        tenant: TenantId::ANONYMOUS,
    })
}

fn periodic_worker(interval: std::time::Duration) {
    std::thread::Builder::new()
        .spawn(move || loop {
            std::thread::sleep(interval); // rule: stoppable-sleep — nobody can stop this wait
            tick();
        })
        .ok();
}

#[cfg(test)]
mod tests {
    // Exempt region: none of these may be reported.
    fn fine() {
        let x: Option<u8> = None;
        let _ = x.unwrap();
    }
}
