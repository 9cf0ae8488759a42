//! The production topology, started in-process from the crates' public
//! spawn and config APIs: a `facebook`-profile PSP, three packed-log
//! storage nodes behind a cluster router at R=2, and a trusted proxy
//! with the CLI's default settings.

use p3_core::pipeline::P3Codec;
use p3_net::proxy::{
    default_estimator, P3Proxy, ProxyConfig, DEFAULT_CACHE_SHARDS, DEFAULT_SECRET_CACHE_CAPACITY,
};
use p3_net::ServerConfig;
use p3_psp::{PspProfile, PspService};
use p3_storage::{
    ClusterBackend, ClusterConfig, PackedBackend, StorageBackend, StorageCore, StorageService,
};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Master key shared by the proxy and the traced replay.
pub const MASTER_KEY: &[u8] = b"p3 perfbench master key";

/// Re-encode quality the `p3 proxy` CLI uses.
pub const REENCODE_QUALITY: u8 = 95;

/// Storage nodes behind the router, and the router's replica count.
pub const NODES: usize = 3;
pub const REPLICAS: usize = 2;

/// A directory removed when dropped, so a failed run leaves no data.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn create(path: PathBuf) -> Result<TempDir, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Every tier of one running system. Dropping it stops every server and
/// removes the nodes' data directories.
pub struct Topology {
    proxy: P3Proxy,
    router: StorageService,
    nodes: Vec<StorageService>,
    psp: PspService,
    _dir: TempDir,
}

impl Topology {
    /// Spawn every tier; the packed nodes keep their logs under `dir`.
    pub fn spawn(dir: PathBuf) -> Result<Topology, String> {
        let dir = TempDir::create(dir)?;
        let psp = PspService::spawn(PspProfile::facebook()).map_err(|e| format!("psp: {e}"))?;
        let mut nodes = Vec::with_capacity(NODES);
        for i in 0..NODES {
            let disk = PackedBackend::open(&dir.path().join(format!("node{i}")))
                .map_err(|e| format!("node{i}: {e}"))?;
            let core = StorageCore::with_backend(Arc::new(disk) as Arc<dyn StorageBackend>);
            nodes.push(
                StorageService::spawn_with(Arc::new(core)).map_err(|e| format!("node{i}: {e}"))?,
            );
        }
        let cluster = ClusterBackend::new(ClusterConfig {
            nodes: nodes.iter().map(StorageService::addr).collect(),
            replicas: REPLICAS,
            ..ClusterConfig::default()
        })
        .map_err(|e| format!("router: {e}"))?;
        let router_core = StorageCore::with_backend(Arc::new(cluster) as Arc<dyn StorageBackend>);
        let router = StorageService::spawn_with(Arc::new(router_core))
            .map_err(|e| format!("router: {e}"))?;
        let proxy = P3Proxy::spawn(ProxyConfig {
            psp_addr: psp.addr(),
            storage_addr: router.addr(),
            master_key: MASTER_KEY.to_vec(),
            codec: P3Codec::default(),
            estimator: default_estimator(),
            reencode_quality: REENCODE_QUALITY,
            secret_cache_capacity: DEFAULT_SECRET_CACHE_CAPACITY,
            cache_shards: DEFAULT_CACHE_SHARDS,
            server: ServerConfig::default(),
        })
        .map_err(|e| format!("proxy: {e}"))?;
        Ok(Topology { proxy, router, nodes, psp, _dir: dir })
    }

    pub fn proxy_addr(&self) -> SocketAddr {
        self.proxy.addr()
    }

    pub fn psp_addr(&self) -> SocketAddr {
        self.psp.addr()
    }

    pub fn psp(&self) -> &Arc<p3_psp::PspCore> {
        self.psp.core()
    }

    /// The router's core: its `put`/`get` run R=2 replication over the
    /// nodes, each of which group-commits its own fsync.
    pub fn router(&self) -> &Arc<StorageCore> {
        self.router.core()
    }

    pub fn router_addr(&self) -> SocketAddr {
        self.router.addr()
    }

    /// The nodes' cores, whose backend counters `/stats` renders.
    pub fn node_cores(&self) -> impl Iterator<Item = &Arc<StorageCore>> {
        self.nodes.iter().map(StorageService::core)
    }

    /// Serving-tier counters of the proxy's listener.
    pub fn proxy_server_stats(&self) -> &p3_net::ServerStats {
        self.proxy.server_stats()
    }
}

impl Drop for Topology {
    fn drop(&mut self) {
        self.proxy.shutdown();
        self.router.shutdown();
        for node in &mut self.nodes {
            node.shutdown();
        }
        self.psp.shutdown();
    }
}
