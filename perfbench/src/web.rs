//! `nginx-smp`: two simulated cores, one nginx shard per core with 32
//! keep-alive connections each, a closed loop of `GET /index.html`,
//! cores multiplexed min-virtual-clock-first (lowest core on ties).

use std::rc::Rc;
use std::time::Instant;

use flexos_apps::nginx::{NginxServer, NGINX_PORT};
use flexos_apps::{http, workloads};
use flexos_core::config::SafetyConfig;
use flexos_machine::fault::Fault;
use flexos_net::{SocketHandle, TcpClient};
use flexos_system::{configs, FlexOs, SystemBuilder};

use crate::sim::{Closed, Rng};
use crate::trace::Recorder;

/// Simulated cores of the workload's image.
pub const CORES: usize = 2;
/// Keep-alive connections per core's shard.
pub const CONNS_PER_CORE: usize = 32;
/// The request every connection repeats.
pub const REQUEST: &[u8] =
    b"GET /index.html HTTP/1.1\r\nHost: flexos\r\nConnection: keep-alive\r\n\r\n";

/// The workload's image: lwip alone in a second EPT VM.
pub fn config() -> SafetyConfig {
    configs::ept2(&["lwip"]).expect("ept2 lwip is a valid config")
}

/// The full response every request must get: the keep-alive head and
/// the whole welcome page.
pub fn expected_response() -> Vec<u8> {
    let page = http::welcome_page();
    let mut out = http::response_head(page.len(), true);
    out.extend_from_slice(&page);
    out
}

struct Shard {
    server: Rc<NginxServer>,
    clients: Vec<TcpClient>,
    conns: Vec<SocketHandle>,
}

/// The loaded shards and the page they must serve.
pub struct Web {
    os: FlexOs,
    shards: Vec<Shard>,
    /// What every response must be, byte for byte.
    pub expected: Vec<u8>,
    rng: Rng,
}

impl Web {
    /// Boots `image` on [`CORES`] cores (lwip homed on core 0) and
    /// installs and connects one shard per core; connections are picked
    /// from `seed`.
    pub fn setup(image: SafetyConfig, seed: u64, rec: &mut dyn Recorder) -> Result<Web, Fault> {
        rec.begin("system.build");
        let os = SystemBuilder::new(image)
            .app(flexos_apps::nginx_component())
            .cores(CORES)
            .build();
        rec.end();
        let os = os?;
        let mut shards = Vec::with_capacity(CORES);
        for core in 0..CORES {
            os.env.switch_core(core);
            let port = NGINX_PORT + core as u16;
            rec.begin("apps.install");
            let server = workloads::install_nginx_on(&os, port)?;
            rec.end();
            rec.begin("net.connect");
            let mut clients = Vec::with_capacity(CONNS_PER_CORE);
            let mut conns = Vec::with_capacity(CONNS_PER_CORE);
            for i in 0..CONNS_PER_CORE {
                let src = 51_000 + core as u16 * 1_000 + i as u16;
                clients.push(TcpClient::connect(&os.net, src, port)?);
                conns.push(server.accept()?.ok_or_else(|| Fault::InvalidConfig {
                    reason: "nginx: handshake did not queue a connection".to_string(),
                })?);
            }
            rec.end();
            shards.push(Shard {
                server,
                clients,
                conns,
            });
        }
        os.env.switch_core(0);
        Ok(Web {
            os,
            shards,
            expected: expected_response(),
            rng: Rng::new(seed),
        })
    }

    /// The core with the smallest virtual clock, lowest id on ties.
    fn next_core(&self) -> usize {
        let machine = self.os.env.machine();
        (0..self.shards.len())
            .min_by_key(|&c| (machine.core_clock(c).now(), c))
            .expect("at least one core")
    }
}

impl Closed for Web {
    fn os(&self) -> &FlexOs {
        &self.os
    }

    fn step<R: Recorder>(&mut self, rec: &mut R) -> Result<(u64, bool), Fault> {
        let i = self.rng.below(CONNS_PER_CORE as u64) as usize;
        let t0 = Instant::now();
        rec.begin("request");
        let core = self.next_core();
        self.os.env.switch_core(core);
        let shard = &mut self.shards[core];
        let client = &mut shard.clients[i];
        rec.begin("net.client_send");
        client.send(&self.os.net, REQUEST)?;
        rec.end();
        rec.begin("apps.serve");
        shard.server.serve_one(shard.conns[i])?;
        rec.end();
        rec.begin("net.client_drain");
        client.drain(&self.os.net)?;
        rec.end();
        rec.end();
        let ns = t0.elapsed().as_nanos() as u64;
        let ok = client.received() == self.expected.as_slice();
        client.clear_received();
        Ok((ns, ok))
    }
}
