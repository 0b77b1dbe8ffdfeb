//! One conformance suite over the fixed kernel interface (Listing 1).
//!
//! The paper fixes one interface for every kernel so that kernels are
//! portable and interchangeable. This suite holds every deployed kernel
//! and both canonical chains to that one contract through one table of
//! cases: each params field at its bounds and one past them, truncated
//! params, a zero-length stream, a stream ending mid-tuple and a
//! duplicate invoke. It drives the kernels sans-IO through the public
//! `strom::kernels` API, answering their DMA reads from a host-memory
//! image. Every case must show that
//!
//! - it ends in `Done` or an in-band `ERR_*` word, and nothing panics;
//! - no `DmaWrite` falls outside the regions the params or the grant
//!   name, and no DMA read asks for more than [`MAX_READ`] bytes;
//! - it emits the same on a fresh kernel as on one configured and
//!   mid-stream beforehand: no configuration outlives the invoke that
//!   replaced it, and a refused invoke leaves none behind;
//! - the slot is retired: a valid invoke and stream after it emit
//!   exactly what they emit on a fresh kernel.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use bytes::Bytes;

use strom::kernels::chains::{
    crcverify_shuffle, crcverify_shuffle_params, filter_agg_hll, filter_agg_hll_params,
};
use strom::kernels::consistency::MAX_OBJECT_LEN;
use strom::kernels::crc_verify::push_trailer;
use strom::kernels::framework::{decode_error, error_word};
use strom::kernels::framework::{ERR_BAD_PARAMS, ERR_INCONSISTENT, ERR_NOT_FOUND, ERR_NO_SPACE};
use strom::kernels::hll_kernel::HllParams;
use strom::kernels::layouts::{build_hash_table, build_kv_store, build_linked_list};
use strom::kernels::layouts::{build_object_store, KvStore};
use strom::kernels::put::encode_put_request;
use strom::kernels::shuffle::encode_histogram;
use strom::kernels::traversal::MAX_VALUE_LEN;
use strom::kernels::{AggregateKernel, AggregateParams, ChainParams, ConsistencyKernel};
use strom::kernels::{ConsistencyParams, CrcVerifyKernel, CrcVerifyParams, FilterKernel};
use strom::kernels::{FilterParams, GetKernel, GetParams, HllKernel, Kernel, KernelAction};
use strom::kernels::{KernelEvent, Predicate, PutConfig, PutKernel, ShuffleKernel};
use strom::kernels::{ShuffleParams, TraversalKernel, TraversalParams};
use strom::mem::{HostMemory, HUGE_PAGE_SIZE};
use Expect::{Error, Refused, Served};
use KernelAction::Done;

/// The longest DMA read a kernel may issue for one request: the bound on
/// consistency's `object_len`, which traversal's `value_size` shares.
/// Past it the NIC allocates and reads whatever a remote caller asked.
const MAX_READ: u32 = MAX_OBJECT_LEN;

const QPN: u32 = 1;
/// The requester-side address results are sent to.
const TARGET: u64 = 0x9000;
/// Where the shuffle partitions start in the image: 1 024 of 256 B.
const PARTITIONS: u64 = 0x8_0000;
const FILTER_DEST: u64 = 0x10_0000;

#[derive(Clone)]
enum Step {
    Invoke(Bytes),
    /// Stream bytes, closing the stream if `last`. The DMA reads issued
    /// before it are answered first, so a stream follows its invocation's
    /// configuration; consecutive invokes are not separated that way.
    Data(Bytes, bool),
}

/// What a case must end in, beyond the contract every case meets.
#[derive(Clone, Copy, PartialEq)]
enum Expect {
    /// The first invoke emits exactly the kernel's refusal, reading and
    /// writing nothing, and the stream after it emits no record.
    Refused,
    /// Served; what the kernel emits is not pinned here.
    Served,
    /// The in-band error word with this code reaches the requester.
    Error(u16),
}

/// A named case: its steps, and what it must end in.
struct Case(String, Vec<Step>, Expect);

/// Adds a subject's bound cases, one a line: `name: params => expect;`
/// invokes `params`, then streams the subject's valid stream.
macro_rules! bounds {
    ($s:expr; $($name:literal: $params:expr => $expect:expr;)*) => {
        $s$(.bound($name, $params, $expect))*
    };
}

/// Adds cases, one a line: `name: [steps] => expect;`.
macro_rules! cases {
    ($s:expr; $($name:literal: [$($step:expr),*] => $expect:expr;)*) => {
        $s$(.case($name, vec![$($step),*], $expect))*
    };
}

/// Builds a fresh kernel.
type Make = fn() -> Box<dyn Kernel>;

/// One kernel (or chain) under test.
struct Subject {
    name: &'static str,
    kernel: Make,
    /// What the kernel answers malformed params with.
    refusal: Vec<KernelAction>,
    /// The valid invocation: its params, then a stream.
    valid: Vec<Step>,
    /// Brings a fresh kernel into a configured, mid-stream state.
    prime: Vec<Step>,
    /// Regions the params of the cases and the image's tables name.
    writable: Vec<Range<u64>>,
    cases: Vec<Case>,
}

impl Subject {
    /// A subject whose valid invocation is `params` then `stream`, primed
    /// by `params` and the stream's first 13 bytes, with the cases every
    /// subject runs; `short` is one byte shorter than the shortest params
    /// that decode.
    fn new(name: &'static str, kernel: Make, p: Bytes, stream: Bytes, short: Bytes) -> Self {
        use Step::{Data, Invoke};
        let (params, cut) = (Invoke(p), stream.slice(..13.min(stream.len())));
        let full = Data(stream, true);
        let (valid, prime) = (
            vec![params.clone(), full.clone()],
            vec![params.clone(), Data(cut.clone(), false)],
        );
        let (refusal, writable, cases) = (vec![Done], Vec::new(), Vec::new());
        let s = Subject {
            name,
            kernel,
            refusal,
            valid,
            prime,
            writable,
            cases,
        };
        cases! { s;
            "empty params": [Invoke(Bytes::new())] => Refused;
            "params one byte short": [Invoke(short), full.clone()] => Refused;
            "valid": [params.clone(), full.clone()] => Served;
            "zero-length stream": [params.clone(), Data(Bytes::new(), true)] => Served;
            "stream ending mid-tuple": [params.clone(), Data(cut, true)] => Served;
            "duplicate invoke": [params.clone(), params, full] => Served;
        }
    }

    fn case(mut self, name: &str, steps: Vec<Step>, expect: Expect) -> Subject {
        self.cases.push(Case(name.into(), steps, expect));
        self
    }

    /// A case invoking `params`, then streaming the valid stream.
    fn bound(self, name: &str, params: Bytes, expect: Expect) -> Subject {
        let steps = vec![Step::Invoke(params), self.valid[1].clone()];
        self.case(name, steps, expect)
    }

    fn writable(mut self, region: Range<u64>) -> Subject {
        self.writable.push(region);
        self
    }
}

/// Where the image's tables are; every image has the same addresses.
struct Tables {
    base: u64,
    list: u64,
    entry: u64,
    object: u64,
    object_len: u32,
    kv: KvStore,
    /// Histograms of one partition, two, 1 024, and one partition that
    /// reaches the top of the address space.
    hist: [u64; 4],
}

/// A fresh host-memory image holding every table.
fn image() -> (HostMemory, Tables) {
    let mut mem = HostMemory::new();
    let (base, _) = mem.pin(2 * HUGE_PAGE_SIZE).expect("pinned");
    let list = build_linked_list(&mut mem, base, &[10, 20, 30], 64).head;
    let entry = build_hash_table(&mut mem, base + 0x1_0000, 4, &[1, 2, 3], 32).entry_addr(2);
    let store = build_object_store(&mut mem, base + 0x2_0000, 1, 64);
    // One primary entry whose two buckets are full: an insert needs a
    // fresh overflow entry.
    let kv = build_kv_store(&mut mem, base + 0x3_0000, 1, &[1, 2], 16, 4);
    let hist = [0, 1, 2, 3].map(|i| base + 0x4_0000 + i * 0x1_0000);
    let part = |i: u64| (base + PARTITIONS + 256 * i, 256);
    for (&at, n) in hist.iter().zip([1, 2, 1024]) {
        mem.write(at, &encode_histogram(&(0..n).map(part).collect::<Vec<_>>()));
    }
    mem.write(hist[3], &encode_histogram(&[(u64::MAX - 7, 256)]));
    let (object, object_len) = (store.object_addrs[0], store.object_size());
    let tables = Tables {
        base,
        list,
        entry,
        object,
        object_len,
        kv,
        hist,
    };
    (mem, tables)
}

/// A kernel running against its own image.
struct Run {
    kernel: Box<dyn Kernel>,
    mem: HostMemory,
    image: Range<u64>,
    /// DMA reads not answered yet, in issue order.
    pending: VecDeque<(u32, u64, u32)>,
}

impl Run {
    fn new(kernel: Box<dyn Kernel>) -> Run {
        let (mem, t) = image();
        let (image, pending) = (t.base..t.base + 2 * HUGE_PAGE_SIZE, VecDeque::new());
        Run {
            kernel,
            mem,
            image,
            pending,
        }
    }

    fn holds(&self, vaddr: u64, len: usize) -> bool {
        let end = vaddr.checked_add(len as u64);
        vaddr >= self.image.start && end.is_some_and(|end| end <= self.image.end)
    }

    /// Hands one event to the kernel, applying its writes to the image,
    /// queueing its reads and logging everything it emits.
    fn feed(&mut self, event: KernelEvent, log: &mut Vec<KernelAction>) {
        for action in self.kernel.on_event(event) {
            match &action {
                KernelAction::DmaRead { tag, vaddr, len } => {
                    assert!(*len <= MAX_READ, "a DMA read of {len} B");
                    self.pending.push_back((*tag, *vaddr, *len));
                }
                KernelAction::DmaWrite { vaddr, data } if self.holds(*vaddr, data.len()) => {
                    self.mem.write(*vaddr, data);
                }
                _ => {}
            }
            log.push(action);
        }
    }

    /// Answers the outstanding DMA reads, and the reads they issue, in
    /// order. Memory outside the image reads as zeros.
    fn settle(&mut self, log: &mut Vec<KernelAction>) {
        while let Some((tag, vaddr, len)) = self.pending.pop_front() {
            let len = len as usize;
            let data = match self.holds(vaddr, len) {
                true => self.mem.read(vaddr, len),
                false => vec![0; len],
            };
            let data = Bytes::from(data);
            self.feed(KernelEvent::DmaData { tag, data }, log);
        }
    }

    /// Runs `steps`, then answers every DMA read; returns what the kernel
    /// emitted.
    fn apply(&mut self, steps: &[Step]) -> Vec<KernelAction> {
        let mut log = Vec::new();
        for step in steps {
            let event = match step.clone() {
                Step::Invoke(params) => KernelEvent::Invoke { qpn: QPN, params },
                Step::Data(data, last) => {
                    self.settle(&mut log);
                    KernelEvent::RoceData {
                        qpn: QPN,
                        data,
                        last,
                    }
                }
            };
            self.feed(event, &mut log);
        }
        self.settle(&mut log);
        log
    }
}

/// The error code an action sends, if it sends an error word.
fn error_code(action: &KernelAction) -> Option<u16> {
    match action {
        KernelAction::RoceSend { data, .. } if data.len() == 8 => {
            decode_error(u64::from_le_bytes(data[..].try_into().expect("sized")))
        }
        _ => None,
    }
}

/// A short form of `actions` for failure messages.
fn brief(actions: &[KernelAction]) -> String {
    let one = |a: &KernelAction| match a {
        KernelAction::DmaRead { len, vaddr, .. } => format!("read {len}@{vaddr:#x}"),
        KernelAction::DmaWrite { vaddr, data } => format!("write {}@{vaddr:#x}", data.len()),
        KernelAction::RoceSend { data, .. } => match error_code(a) {
            Some(code) => format!("ERR {code}"),
            None => format!("send {}", data.len()),
        },
        KernelAction::Forward { data, .. } => format!("forward {}", data.len()),
        Done => "Done".into(),
    };
    format!("{:?}", actions.iter().map(one).collect::<Vec<_>>())
}

/// Checks one case of `subject`; returns why it fails.
fn check(subject: &Subject, case: &Case) -> Result<(), String> {
    let mut fresh = Run::new((subject.kernel)());
    let split = usize::from(case.2 == Refused);
    let head = fresh.apply(&case.1[..split]);
    let tail = fresh.apply(&case.1[split..]);
    if case.2 == Refused && (head != subject.refusal || tail.iter().any(|a| *a != Done)) {
        return Err(format!("not refused: {} {}", brief(&head), brief(&tail)));
    }
    let log = [head, tail].concat();
    let reply = |a: &&KernelAction| !matches!(a, KernelAction::DmaRead { .. });
    let last = log.iter().rev().find(reply);
    if !last.is_some_and(|a| *a == Done || error_code(a).is_some()) {
        return Err(format!(
            "ends in neither Done nor an error: {}",
            brief(&log)
        ));
    }
    if let Error(code) = case.2 {
        if !log.iter().any(|a| error_code(a) == Some(code)) {
            return Err(format!("no ERR {code}: {}", brief(&log)));
        }
    }

    let mut primed = Run::new((subject.kernel)());
    let prime_log = primed.apply(&subject.prime);
    let after_prime = primed.apply(&case.1);
    if after_prime != log {
        let (fresh, primed) = (brief(&log), brief(&after_prime));
        return Err(format!(
            "depends on the past:\n fresh  {fresh}\n primed {primed}"
        ));
    }

    for action in log.iter().chain(&prime_log) {
        if let KernelAction::DmaWrite { vaddr, data } = action {
            let (start, len) = (u128::from(*vaddr), data.len() as u128);
            let inside = |r: &Range<u64>| r.start <= *vaddr && start + len <= r.end.into();
            if !subject.writable.iter().any(inside) {
                return Err(format!("writes {len} B at {vaddr:#x}, outside"));
            }
        }
    }

    let reference = Run::new((subject.kernel)()).apply(&subject.valid);
    let probe = Run::new(fresh.kernel).apply(&subject.valid);
    if probe != reference {
        let (fresh, after) = (brief(&reference), brief(&probe));
        return Err(format!(
            "the next invocation differs:\n fresh {fresh}\n after {after}"
        ));
    }
    Ok(())
}

fn le(values: impl IntoIterator<Item = u64>) -> Bytes {
    let mut bytes = Vec::new();
    for value in values {
        bytes.extend(value.to_le_bytes());
    }
    Bytes::from(bytes)
}

/// `params` with byte `at` set to `value`.
fn poke(params: &Bytes, at: usize, value: u8) -> Bytes {
    let mut raw = params.to_vec();
    raw[at] = value;
    Bytes::from(raw)
}

/// How the random-access kernels refuse: `ERR_BAD_PARAMS` at address 0.
fn bad_params(s: Subject) -> Subject {
    let data = Bytes::copy_from_slice(&error_word(ERR_BAD_PARAMS));
    let send = KernelAction::RoceSend {
        qpn: QPN,
        remote_vaddr: 0,
        data,
    };
    let refusal = vec![send, Done];
    Subject { refusal, ..s }
}

const NOT_FOUND: Expect = Error(ERR_NOT_FOUND);
const BAD: Expect = Error(ERR_BAD_PARAMS);

fn traversal(t: &Tables) -> Subject {
    let p = TraversalParams::for_linked_list(t.list, 20, 64, TARGET);
    let with = |edit: &dyn Fn(&mut TraversalParams)| {
        let mut q = p;
        edit(&mut q);
        q.encode()
    };
    let (encoded, make): (_, Make) = (p.encode(), || Box::new(TraversalKernel::new()));
    let s = bad_params(Subject::new(
        "traversal",
        make,
        encoded.clone(),
        le([7, 7]),
        encoded.slice(..35),
    ));
    // Positions count 4 B fields: 14 is the last whose word ends inside
    // the 64 B element, 15 the first that runs past it. Key 9 misses.
    bounds! { s;
        "predicate 3": with(&|q| q.predicate = Predicate::NotEqual) => Served;
        "predicate 4": poke(&p.encode(), 22, 4) => Refused;
        "key_mask 0": with(&|q| q.key_mask = 0) => NOT_FOUND;
        "key_mask bit 14": with(&|q| q.key_mask = 1 << 14) => NOT_FOUND;
        "key_mask bit 15": with(&|q| q.key_mask = 1 << 15) => BAD;
        "value_ptr_position 14": with(&|q| q.value_ptr_position = 14) => Served;
        "value_ptr_position 15": with(&|q| q.value_ptr_position = 15) => BAD;
        "next_ptr 14": with(&|q| (q.key, q.next_element_ptr_position) = (9, 14)) => NOT_FOUND;
        "next_ptr 15": with(&|q| (q.key, q.next_element_ptr_position) = (9, 15)) => BAD;
        "value_size 0": with(&|q| q.value_size = 0) => Served;
        "value_size max": with(&|q| q.value_size = MAX_VALUE_LEN) => Served;
        "value_size max + 1": with(&|q| q.value_size = MAX_VALUE_LEN + 1) => Refused;
        "value_size u32::MAX": with(&|q| q.value_size = u32::MAX) => Refused;
        "remote_address u64::MAX": with(&|q| q.remote_address = u64::MAX) => NOT_FOUND;
    }
}

fn get(t: &Tables) -> Subject {
    let p = GetParams {
        entry_addr: t.entry,
        key: 2,
        target_address: TARGET,
        chained: false,
    };
    let with = |edit: &dyn Fn(&mut GetParams)| {
        let mut q = p;
        edit(&mut q);
        q.encode()
    };
    let (kv, encoded) = (t.kv.entry_addr(1), p.encode());
    let make: Make = || Box::new(GetKernel::new());
    let s = bad_params(Subject::new(
        "get",
        make,
        p.encode(),
        le([7, 7]),
        encoded.slice(..23),
    ));
    bounds! { s;
        "24 B, no flags byte": encoded.slice(..24) => Served;
        "flags 0xFF": poke(&encoded, 24, 0xFF) => Served;
        "chained": with(&|q| (q.entry_addr, q.key, q.chained) = (kv, 1, true)) => Served;
        "key 0": with(&|q| q.key = 0) => NOT_FOUND;
        "entry_addr u64::MAX": with(&|q| q.entry_addr = u64::MAX) => NOT_FOUND;
    }
}

fn consistency(t: &Tables) -> Subject {
    let (object_addr, object_len) = (t.object, t.object_len);
    let p = ConsistencyParams {
        object_addr,
        object_len,
        target_address: TARGET,
    };
    let len = |object_len| ConsistencyParams { object_len, ..p }.encode();
    let make: Make = || Box::new(ConsistencyKernel::new());
    let short = p.encode().slice(..19);
    let s = bad_params(Subject::new(
        "consistency",
        make,
        p.encode(),
        le([7, 7]),
        short,
    ));
    let torn = Error(ERR_INCONSISTENT);
    bounds! { s;
        "object_len 0": len(0) => Refused;
        "object_len 7": len(7) => Refused;
        "object_len 8": len(8) => torn;
        "object_len max": len(MAX_OBJECT_LEN) => torn;
        "object_len max + 1": len(MAX_OBJECT_LEN + 1) => Refused;
        "object_len u32::MAX": len(u32::MAX) => Refused;
    }
}

fn shuffle_params(histogram_addr: u64, num_partitions: u32) -> ShuffleParams {
    ShuffleParams {
        histogram_addr,
        num_partitions,
    }
}

fn shuffle(t: &Tables) -> Subject {
    let p = |at, n| shuffle_params(at, n).encode();
    let ([one, two, many, top], make): (_, Make) = (t.hist, || Box::new(ShuffleKernel::new()));
    let stream = le((0..100).map(|i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    let partitions = t.base + PARTITIONS..t.base + PARTITIONS + 1024 * 256;
    let s = Subject::new("shuffle", make, p(two, 2), stream, p(two, 2).slice(..11))
        .writable(partitions)
        .writable(u64::MAX - 7..u64::MAX);
    bounds! { s;
        "num_partitions 0": p(one, 0) => Refused;
        "num_partitions 1": p(one, 1) => Served;
        "num_partitions 3": p(many, 3) => Refused;
        "num_partitions 1024": p(many, 1024) => Served;
        "num_partitions 1025": p(many, 1025) => Refused;
        "num_partitions 2048": p(many, 2048) => Refused;
        "histogram at u64::MAX (reads zeros)": p(u64::MAX, 2) => Served;
        "a partition at the top of the address space": p(top, 1) => Served;
    }
}

fn filter_params(t: &Tables) -> FilterParams {
    let (dest_addr, predicate) = (t.base + FILTER_DEST, Predicate::GreaterThan);
    let (dest_capacity, operand, target_address) = (4096, 40, TARGET);
    FilterParams {
        dest_addr,
        dest_capacity,
        predicate,
        operand,
        target_address,
    }
}

fn filter(t: &Tables) -> Subject {
    let p = filter_params(t);
    let with = |edit: &dyn Fn(&mut FilterParams)| {
        let mut q = p;
        edit(&mut q);
        q.encode()
    };
    let make: Make = || Box::new(FilterKernel::new());
    let s = Subject::new(
        "filter",
        make,
        p.encode(),
        le(0..100),
        p.encode().slice(..31),
    )
    .writable(p.dest_addr..p.dest_addr + u64::from(u32::MAX))
    .writable(u64::MAX - 7..u64::MAX);
    bounds! { s;
        "predicate 3": with(&|q| q.predicate = Predicate::NotEqual) => Served;
        "predicate 4": poke(&p.encode(), 12, 4) => Refused;
        "dest_capacity 0": with(&|q| q.dest_capacity = 0) => Served;
        "dest_capacity u32::MAX": with(&|q| q.dest_capacity = u32::MAX) => Served;
        "dest_addr at the top": with(&|q| q.dest_addr = u64::MAX - 7) => Served;
    }
}

fn aggregate(_: &Tables) -> Subject {
    let p = |target_address| AggregateParams { target_address }.encode();
    let make: Make = || Box::new(AggregateKernel::new());
    let stream = le([3, u64::MAX, 0, 9]);
    Subject::new("aggregate", make, p(TARGET), stream, p(TARGET).slice(..7)).bound(
        "target_address u64::MAX",
        p(u64::MAX),
        Served,
    )
}

fn crc_verify(_: &Tables) -> Subject {
    let p = CrcVerifyParams {
        target_address: TARGET,
    }
    .encode();
    let mut stream = le(0..40).to_vec();
    push_trailer(&mut stream);
    let make: Make = || Box::new(CrcVerifyKernel::new());
    let s = Subject::new("crc-verify", make, p.clone(), stream.into(), p.slice(..7));
    let abc = Step::Data(Bytes::from_static(b"abc"), true);
    cases! { s; "stream shorter than the trailer": [Step::Invoke(p), abc] => BAD; }
}

fn hll(_: &Tables) -> Subject {
    let p = HllKernel::stream_params(TARGET);
    let query = HllParams {
        target_address: TARGET,
    }
    .encode();
    let (make, stream): (Make, _) = (|| Box::new(HllKernel::new()), le((0..300).map(|i| i % 97)));
    let mut s = Subject::new("hll", make, p.clone(), stream, p.slice(..7))
        .bound("8 B: a snapshot query", query, Served)
        .bound("16 B, flag 2: a snapshot query", poke(&p, 8, 2), Served);
    // A snapshot query reads the sketch of every stream the kernel saw
    // (its status register), so priming stops short of data.
    s.prime.truncate(1);
    s
}

fn put(t: &Tables) -> Subject {
    let grant = PutConfig::for_store(&t.kv);
    let entry = t.kv.entry_addr(1);
    let blob = |key, entry, len| Bytes::from(encode_put_request(key, entry, TARGET, &vec![9; len]));
    let update = blob(1, entry, 16);
    let make: Make = || Box::new(PutKernel::new());
    let short = grant.encode().slice(..35);
    let mut s = Subject::new("put", make, grant.encode(), update.clone(), short)
        .writable(t.kv.table.entries_base..t.kv.value_arena_end);
    // A request is its own stream: priming stops at the grant.
    s.prime.truncate(1);
    let insert = || Step::Data(blob(3, t.kv.entry_addr(3), 16), true);
    let request = |key, entry, len| Step::Data(blob(key, entry, len), true);
    let with = |edit: &dyn Fn(&mut PutConfig)| {
        let mut c = grant;
        edit(&mut c);
        Step::Invoke(c.encode())
    };
    let (top, full) = (u64::MAX - 7, Error(ERR_NO_SPACE));
    let same = || with(&|_| {});
    let cut = || Step::Data(update.slice(..27), true);
    // The last three grants cannot hold the insert's slot or entry.
    cases! { s;
        "an insert": [same(), insert()] => Served;
        "value length 15": [same(), request(1, entry, 15)] => BAD;
        "value length 17": [same(), request(1, entry, 17)] => BAD;
        "key 0": [same(), request(0, entry, 16)] => BAD;
        "entry address 0": [same(), request(1, 0, 16)] => BAD;
        "header cut short": [same(), cut()] => Served;
        "value_size 0": [with(&|c| c.value_size = 0), request(1, entry, 0)] => Served;
        "value arena at the top": [with(&|c| c.value_arena_next = top), insert()] => full;
        "entry arena at the top": [with(&|c| c.entry_arena_next = top), insert()] => full;
        "an inverted value arena": [with(&|c| c.value_arena_end = 0), insert()] => full;
    }
}

/// A chain's stage count at its length, one either side of it, and a
/// count the params cannot hold.
fn stage_counts(s: Subject, params: &Bytes) -> Subject {
    let stages = ChainParams::decode(params).expect("valid").stages;
    let count = |n| {
        let mut stages = stages.clone();
        stages.resize(n, Bytes::new());
        ChainParams { stages }.encode()
    };
    let n = stages.len();
    let huge = [&u16::MAX.to_le_bytes()[..], &params[2..]].concat();
    bounds! { s;
        "stage count n": count(n) => Served;
        "stage count n - 1": count(n - 1) => Refused;
        "stage count n + 1": count(n + 1) => Refused;
        "stage count u16::MAX": Bytes::from(huge) => Refused;
    }
}

/// `params` of a chain with stage `i`'s params replaced by `blob`.
fn restage(params: &Bytes, i: usize, blob: Bytes) -> Bytes {
    let mut stages = ChainParams::decode(params).expect("valid").stages;
    stages[i] = blob;
    ChainParams { stages }.encode()
}

fn filter_agg_hll_chain(t: &Tables) -> Subject {
    let filter = filter_params(t);
    let aggregate = AggregateParams {
        target_address: TARGET + 0x100,
    };
    let p = filter_agg_hll_params(&filter, &aggregate, TARGET + 0x200);
    let (make, stream): (Make, _) = (|| Box::new(filter_agg_hll()), le((0..200).map(|i| i % 83)));
    let s = Subject::new(
        "filter→aggregate→hll",
        make,
        p.clone(),
        stream,
        p.slice(..p.len() - 1),
    );
    let s = bounds! { s;
        "filter refused": restage(&p, 0, poke(&filter.encode(), 12, 4)) => Served;
        "aggregate refused": restage(&p, 1, Bytes::new()) => Served;
        "hll refused": restage(&p, 2, Bytes::new()) => Served;
    };
    stage_counts(s, &p)
}

fn crcverify_shuffle_chain(t: &Tables) -> Subject {
    let verify = CrcVerifyParams {
        target_address: TARGET,
    };
    let p = crcverify_shuffle_params(&verify, &shuffle_params(t.hist[1], 2));
    let mut stream = le(0..60).to_vec();
    push_trailer(&mut stream);
    let partitions = t.base + PARTITIONS..t.base + PARTITIONS + 2 * 256;
    let make: Make = || Box::new(crcverify_shuffle());
    let short = p.slice(..p.len() - 1);
    let s = Subject::new("crc-verify→shuffle", make, p.clone(), stream.into(), short)
        .writable(partitions);
    let s = bounds! { s;
        "crc-verify refused": restage(&p, 0, Bytes::new()) => Served;
        "shuffle refused": restage(&p, 1, shuffle_params(t.hist[1], 3).encode()) => Served;
    };
    stage_counts(s, &p)
}

#[test]
fn every_kernel_meets_the_interface_contract() {
    let t = image().1;
    let subjects = [
        traversal(&t),
        get(&t),
        consistency(&t),
        shuffle(&t),
        filter(&t),
        aggregate(&t),
        crc_verify(&t),
        hll(&t),
        put(&t),
        filter_agg_hll_chain(&t),
        crcverify_shuffle_chain(&t),
    ];
    let mut failures = Vec::new();
    let cases: usize = subjects.iter().map(|s| s.cases.len()).sum();
    for subject in &subjects {
        for case in &subject.cases {
            let outcome = catch_unwind(AssertUnwindSafe(|| check(subject, case)));
            let outcome = outcome.unwrap_or_else(|panic| {
                let text = panic.downcast_ref::<String>().cloned();
                let text = text.or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()));
                Err(format!("panicked: {}", text.unwrap_or_default()))
            });
            if let Err(why) = outcome {
                failures.push(format!("{} / {}: {why}", subject.name, case.0));
            }
        }
    }
    assert!(cases > 100, "only {cases} cases");
    let failed = failures.len();
    assert!(
        failures.is_empty(),
        "{failed} of {cases} cases fail:\n{}",
        failures.join("\n")
    );
}
