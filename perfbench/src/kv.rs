//! `redis-kv`: one keep-alive connection to Redis on a single core,
//! a closed loop of 90% GET / 10% SET, every reply checked against a
//! host-side model of the key-value store.

use std::io::Write as _;
use std::rc::Rc;
use std::time::Instant;

use flexos_apps::redis::{RedisServer, REDIS_PORT};
use flexos_apps::{resp, workloads};
use flexos_core::compartment::DataSharing;
use flexos_core::config::SafetyConfig;
use flexos_machine::fault::Fault;
use flexos_net::{SocketHandle, TcpClient};
use flexos_system::{configs, FlexOs, SystemBuilder};

use crate::sim::{Closed, Rng};
use crate::trace::Recorder;

/// Keys preloaded before the loop; SETs overwrite only these, so the
/// keyspace stays this size for the whole run.
pub const PRELOAD_KEYS: u64 = 1024;
/// GET keys are drawn from `[0, GET_SPACE)`: a fifth of them miss.
pub const GET_SPACE: u64 = 1280;
/// One request in `SET_EVERY` is a SET.
pub const SET_EVERY: u64 = 10;
/// Bytes of a SET value.
pub const SET_LEN: usize = 24;

/// The workload's image: lwip alone in a second MPK compartment, DSS
/// gates.
pub fn config() -> SafetyConfig {
    configs::mpk2(&["lwip"], DataSharing::Dss).expect("mpk2 lwip/DSS is a valid config")
}

fn key(i: u64) -> Vec<u8> {
    format!("key:{i}").into_bytes()
}

/// The 16-byte value preloaded under `key:{i}`.
fn preload_value(i: u64) -> Vec<u8> {
    format!("value-{i:010}").into_bytes()
}

/// Builds and boots `image` with the Redis component registered.
pub fn boot(image: SafetyConfig, cores: usize, rec: &mut dyn Recorder) -> Result<FlexOs, Fault> {
    rec.begin("system.build");
    let os = SystemBuilder::new(image)
        .app(flexos_apps::redis_component())
        .cores(cores)
        .build();
    rec.end();
    os
}

/// The loaded Redis server, its client and the model of its keyspace.
pub struct Kv {
    os: FlexOs,
    server: Rc<RedisServer>,
    client: TcpClient,
    conn: SocketHandle,
    /// What the server should hold for `key:0..PRELOAD_KEYS`.
    pub model: Vec<Vec<u8>>,
    keys: Vec<Vec<u8>>,
    gets: Vec<Vec<u8>>,
    request: Vec<u8>,
    expected: Vec<u8>,
    rng: Rng,
}

impl Kv {
    /// Boots `image` and installs, preloads and connects Redis; the
    /// request stream is drawn from `seed`.
    pub fn setup(image: SafetyConfig, seed: u64, rec: &mut dyn Recorder) -> Result<Kv, Fault> {
        let os = boot(image, 1, rec)?;
        rec.begin("apps.install");
        let server = workloads::install_redis(&os)?;
        rec.end();
        let keys: Vec<Vec<u8>> = (0..GET_SPACE).map(key).collect();
        let model: Vec<Vec<u8>> = (0..PRELOAD_KEYS).map(preload_value).collect();
        rec.begin("apps.preload");
        let pairs: Vec<(&[u8], &[u8])> = keys
            .iter()
            .zip(&model)
            .map(|(k, v)| (k.as_slice(), v.as_slice()))
            .collect();
        server.preload(&pairs)?;
        rec.end();
        rec.begin("net.connect");
        let client = TcpClient::connect(&os.net, 50_000, REDIS_PORT)?;
        let conn = server.accept()?.ok_or_else(|| Fault::InvalidConfig {
            reason: "redis: handshake did not queue a connection".to_string(),
        })?;
        rec.end();
        let gets = keys
            .iter()
            .map(|k| resp::encode_request(&[b"GET", k]))
            .collect();
        Ok(Kv {
            os,
            server,
            client,
            conn,
            model,
            keys,
            gets,
            request: Vec::new(),
            expected: Vec::new(),
            rng: Rng::new(seed),
        })
    }

    /// Draws the next request into `self.request` and its expected reply
    /// into `self.expected`, updating the model for a SET. Returns
    /// whether the request is a GET (its bytes are then in
    /// `self.gets[index]`) and the key index.
    fn draw(&mut self) -> (bool, usize) {
        self.expected.clear();
        if self.rng.below(SET_EVERY) == 0 {
            let i = self.rng.below(PRELOAD_KEYS) as usize;
            let value = &mut self.model[i];
            value.clear();
            for _ in 0..SET_LEN / 8 {
                let bits = self.rng.next();
                value.extend((0..8).map(|b| b'a' + ((bits >> (8 * b)) & 0xff) as u8 % 26));
            }
            let key = &self.keys[i];
            self.request.clear();
            let _ = write!(self.request, "*3\r\n$3\r\nSET\r\n${}\r\n", key.len());
            self.request.extend_from_slice(key);
            let _ = write!(self.request, "\r\n${}\r\n", value.len());
            self.request.extend_from_slice(value);
            self.request.extend_from_slice(b"\r\n");
            self.expected.extend_from_slice(b"+OK\r\n");
            (false, i)
        } else {
            let i = self.rng.below(GET_SPACE) as usize;
            match self.model.get(i) {
                Some(value) => {
                    let _ = write!(self.expected, "${}\r\n", value.len());
                    self.expected.extend_from_slice(value);
                    self.expected.extend_from_slice(b"\r\n");
                }
                None => self.expected.extend_from_slice(b"$-1\r\n"),
            }
            (true, i)
        }
    }
}

impl Closed for Kv {
    fn os(&self) -> &FlexOs {
        &self.os
    }

    fn step<R: Recorder>(&mut self, rec: &mut R) -> Result<(u64, bool), Fault> {
        let (get, i) = self.draw();
        let request = if get { &self.gets[i] } else { &self.request };
        let t0 = Instant::now();
        rec.begin("request");
        rec.begin("net.client_send");
        self.client.send(&self.os.net, request)?;
        rec.end();
        rec.begin("apps.serve");
        let target = self.server.stats().commands + 1;
        while self.server.stats().commands < target {
            if !self.server.serve_one(self.conn)? {
                return Err(Fault::InvalidConfig {
                    reason: "redis: connection starved".to_string(),
                });
            }
        }
        rec.end();
        rec.begin("net.client_drain");
        self.client.drain(&self.os.net)?;
        rec.end();
        rec.end();
        let ns = t0.elapsed().as_nanos() as u64;
        let ok = self.client.received() == self.expected.as_slice();
        self.client.clear_received();
        Ok((ns, ok))
    }
}
