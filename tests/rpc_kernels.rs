//! End-to-end integration tests of the StRoM RPC mechanism: a client node
//! invokes kernels on the server NIC with a single network round trip and
//! the response lands in client memory via an RDMA WRITE (§5).

use strom::kernels::consistency::{ConsistencyKernel, ConsistencyParams};
use strom::kernels::framework::decode_error;
use strom::kernels::get::{GetKernel, GetParams};
use strom::kernels::layouts::{
    build_hash_table, build_linked_list, build_object_store, value_pattern,
};
use strom::kernels::traversal::{TraversalKernel, TraversalParams};
use strom::nic::{NicConfig, Testbed, WorkRequest};
use strom::sim::time::MICROS;

const CLIENT: usize = 0;
const SERVER: usize = 1;
const QP: u32 = 1;

fn testbed() -> Testbed {
    let mut tb = Testbed::new(NicConfig::ten_gig());
    tb.connect_qp(QP);
    tb
}

#[test]
fn traversal_kernel_linked_list_get_in_one_round_trip() {
    let mut tb = testbed();
    let client_buf = tb.pin(CLIENT, 1 << 20);
    let server_buf = tb.pin(SERVER, 1 << 20);
    tb.deploy_kernel(SERVER, Box::new(TraversalKernel::new()));

    let keys = [100u64, 200, 300, 400, 500, 600, 700, 800];
    let list = build_linked_list(tb.mem(SERVER), server_buf, &keys, 64);

    for (i, &key) in keys.iter().enumerate() {
        let target = client_buf + (i as u64) * 64;
        let watch = tb.add_watch(CLIENT, target, 64);
        let t0 = tb.now();
        tb.post(
            CLIENT,
            QP,
            WorkRequest::Rpc {
                rpc_op: strom::nic::RpcOpCode::TRAVERSAL,
                params: TraversalParams::for_linked_list(list.head, key, 64, target).encode(),
            },
        );
        let t1 = tb.run_until_watch(watch);
        assert_eq!(
            tb.mem(CLIENT).read(target, 64),
            value_pattern(key, 64),
            "value for key {key}"
        );
        let us = (t1 - t0) as f64 / MICROS as f64;
        // One network round trip plus (i + 2) PCIe reads: even the deepest
        // lookup stays far below the RDMA-READ equivalent.
        assert!(us < 40.0, "lookup {i} took {us} us");
    }
    tb.run_until_idle();
    assert_eq!(tb.fabric(SERVER).completed(), keys.len() as u64);
}

#[test]
fn traversal_latency_grows_sublinearly_with_list_length() {
    // The Fig 7 shape: each extra element costs one PCIe read (~1.5 µs),
    // not a network round trip (~5 µs).
    let mut lat = Vec::new();
    for len in [4usize, 32] {
        let mut tb = testbed();
        let client_buf = tb.pin(CLIENT, 1 << 20);
        let server_buf = tb.pin(SERVER, 1 << 20);
        tb.deploy_kernel(SERVER, Box::new(TraversalKernel::new()));
        let keys: Vec<u64> = (1..=len as u64).map(|i| i * 10).collect();
        let list = build_linked_list(tb.mem(SERVER), server_buf, &keys, 64);
        // Look up the tail key: the worst case.
        let watch = tb.add_watch(CLIENT, client_buf, 64);
        let t0 = tb.now();
        tb.post(
            CLIENT,
            QP,
            WorkRequest::Rpc {
                rpc_op: strom::nic::RpcOpCode::TRAVERSAL,
                params: TraversalParams::for_linked_list(
                    list.head,
                    *keys.last().unwrap(),
                    64,
                    client_buf,
                )
                .encode(),
            },
        );
        let t1 = tb.run_until_watch(watch);
        lat.push((t1 - t0) as f64 / MICROS as f64);
        tb.run_until_idle();
    }
    let per_element = (lat[1] - lat[0]) / 28.0;
    assert!(
        (1.0..2.5).contains(&per_element),
        "per-element cost = {per_element} us (expected ~1.5 us PCIe read)"
    );
}

#[test]
fn get_kernel_hash_table_lookup() {
    let mut tb = testbed();
    let client_buf = tb.pin(CLIENT, 1 << 20);
    let server_buf = tb.pin(SERVER, 1 << 20);
    tb.deploy_kernel(SERVER, Box::new(GetKernel::new()));

    let keys: Vec<u64> = (1..=16).collect();
    let ht = build_hash_table(tb.mem(SERVER), server_buf, 256, &keys, 128);

    for &key in &keys {
        let watch = tb.add_watch(CLIENT, client_buf, 128);
        tb.post(
            CLIENT,
            QP,
            WorkRequest::Rpc {
                rpc_op: strom::nic::RpcOpCode::GET,
                params: GetParams {
                    entry_addr: ht.entry_addr(key),
                    key,
                    target_address: client_buf,
                    chained: false,
                }
                .encode(),
            },
        );
        tb.run_until_watch(watch);
        assert_eq!(
            tb.mem(CLIENT).read(client_buf, 128),
            value_pattern(key, 128)
        );
        tb.run_until_idle();
    }
}

#[test]
fn consistency_kernel_returns_verified_objects() {
    let mut tb = testbed();
    let client_buf = tb.pin(CLIENT, 1 << 20);
    let server_buf = tb.pin(SERVER, 1 << 20);
    tb.deploy_kernel(SERVER, Box::new(ConsistencyKernel::new()));

    let store = build_object_store(tb.mem(SERVER), server_buf, 4, 512);
    for (i, &addr) in store.object_addrs.clone().iter().enumerate() {
        let size = store.object_size();
        let watch = tb.add_watch(CLIENT, client_buf, u64::from(size));
        tb.post(
            CLIENT,
            QP,
            WorkRequest::Rpc {
                rpc_op: strom::nic::RpcOpCode::CONSISTENCY,
                params: ConsistencyParams {
                    object_addr: addr,
                    object_len: size,
                    target_address: client_buf,
                }
                .encode(),
            },
        );
        tb.run_until_watch(watch);
        let got = tb.mem(CLIENT).read(client_buf, size as usize);
        assert_eq!(&got[8..], value_pattern(i as u64 + 1, 512), "object {i}");
        assert!(
            strom::kernels::consistency::verify_object(&got),
            "returned object carries a valid CRC"
        );
        tb.run_until_idle();
    }
}

#[test]
fn consistency_kernel_retries_on_injected_failures() {
    let mut tb = testbed();
    let client_buf = tb.pin(CLIENT, 1 << 20);
    let server_buf = tb.pin(SERVER, 1 << 20);
    tb.deploy_kernel(SERVER, Box::new(ConsistencyKernel::new()));
    tb.fabric_mut(SERVER).set_failure_rate(1.0); // Every first read fails.

    let store = build_object_store(tb.mem(SERVER), server_buf, 1, 256);
    let size = store.object_size();
    let watch = tb.add_watch(CLIENT, client_buf, u64::from(size));
    let t0 = tb.now();
    tb.post(
        CLIENT,
        QP,
        WorkRequest::Rpc {
            rpc_op: strom::nic::RpcOpCode::CONSISTENCY,
            params: ConsistencyParams {
                object_addr: store.object_addrs[0],
                object_len: size,
                target_address: client_buf,
            }
            .encode(),
        },
    );
    let t1 = tb.run_until_watch(watch);
    // The retry succeeded and the object is intact.
    let got = tb.mem(CLIENT).read(client_buf, size as usize);
    assert!(strom::kernels::consistency::verify_object(&got));
    // The retry cost one extra PCIe read, not a network round trip.
    let us = (t1 - t0) as f64 / MICROS as f64;
    assert!(us < 12.0, "retried lookup took {us} us");
    tb.run_until_idle();
}

#[test]
fn traversal_miss_writes_error_sentinel() {
    let mut tb = testbed();
    let client_buf = tb.pin(CLIENT, 1 << 20);
    let server_buf = tb.pin(SERVER, 1 << 20);
    tb.deploy_kernel(SERVER, Box::new(TraversalKernel::new()));
    let list = build_linked_list(tb.mem(SERVER), server_buf, &[1, 2, 3], 64);

    let watch = tb.add_watch(CLIENT, client_buf, 8);
    tb.post(
        CLIENT,
        QP,
        WorkRequest::Rpc {
            rpc_op: strom::nic::RpcOpCode::TRAVERSAL,
            params: TraversalParams::for_linked_list(list.head, 999, 64, client_buf).encode(),
        },
    );
    tb.run_until_watch(watch);
    let word = tb.mem(CLIENT).read_u64(client_buf);
    assert_eq!(
        decode_error(word),
        Some(strom::kernels::framework::ERR_NOT_FOUND)
    );
    tb.run_until_idle();
}

#[test]
fn kernels_work_over_a_lossy_link() {
    let mut tb = testbed();
    tb.set_loss_rate(0.03);
    let client_buf = tb.pin(CLIENT, 1 << 20);
    let server_buf = tb.pin(SERVER, 1 << 20);
    tb.deploy_kernel(SERVER, Box::new(TraversalKernel::new()));
    let keys: Vec<u64> = (1..=8).map(|i| i * 7).collect();
    let list = build_linked_list(tb.mem(SERVER), server_buf, &keys, 64);

    for (i, &key) in keys.iter().enumerate() {
        let target = client_buf + (i as u64) * 64;
        let watch = tb.add_watch(CLIENT, target, 64);
        tb.post(
            CLIENT,
            QP,
            WorkRequest::Rpc {
                rpc_op: strom::nic::RpcOpCode::TRAVERSAL,
                params: TraversalParams::for_linked_list(list.head, key, 64, target).encode(),
            },
        );
        tb.run_until_watch(watch);
        assert_eq!(tb.mem(CLIENT).read(target, 64), value_pattern(key, 64));
    }
    tb.run_until_idle();
}

#[test]
fn traversal_kernel_follows_hash_chains() {
    // §6.2: on a bucket miss "the remote NIC could … fetch the next hash
    // table entry in case the implementation uses chaining for collision
    // resolution" — the same kernel, parametrized with a next pointer.
    use strom::kernels::layouts::build_kv_store;

    let mut tb = testbed();
    let client_buf = tb.pin(CLIENT, 1 << 20);
    let server_buf = tb.pin(SERVER, 1 << 20);
    tb.deploy_kernel(SERVER, Box::new(TraversalKernel::new()));

    // Severely undersized table: 4 entries x 2 buckets for 24 keys.
    let keys: Vec<u64> = (1..=24).collect();
    let ht = build_kv_store(tb.mem(SERVER), server_buf, 4, &keys, 64, 0).table;
    assert!(ht.overflow_entries > 0);

    for &key in &keys {
        let watch = tb.add_watch(CLIENT, client_buf, 64);
        tb.post(
            CLIENT,
            QP,
            WorkRequest::Rpc {
                rpc_op: strom::nic::RpcOpCode::TRAVERSAL,
                params: ht.get_params(key, client_buf).encode(),
            },
        );
        tb.run_until_watch(watch);
        assert_eq!(
            tb.mem(CLIENT).read(client_buf, 64),
            value_pattern(key, 64),
            "key {key}"
        );
        tb.run_until_idle();
    }

    // A missing key walks the whole chain and errors out.
    let watch = tb.add_watch(CLIENT, client_buf, 8);
    tb.post(
        CLIENT,
        QP,
        WorkRequest::Rpc {
            rpc_op: strom::nic::RpcOpCode::TRAVERSAL,
            params: ht.get_params(999, client_buf).encode(),
        },
    );
    tb.run_until_watch(watch);
    let word = tb.mem(CLIENT).read_u64(client_buf);
    assert_eq!(
        decode_error(word),
        Some(strom::kernels::framework::ERR_NOT_FOUND)
    );
    tb.run_until_idle();
}
