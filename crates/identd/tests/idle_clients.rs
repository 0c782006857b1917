//! Idle connections must not hold the worker pool: each connection has a
//! read/write timeout (`DaemonConfig::idle_timeout`) and is closed when it
//! expires, so a fresh client still gets served.

use identd::{Client, Daemon, DaemonConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const IDLE: Duration = Duration::from_millis(300);
/// Far longer than `IDLE`: a reply later than this means a starved pool.
const PATIENCE: Duration = Duration::from_secs(10);

fn health(stream: &TcpStream) -> String {
    let mut writer = stream;
    writer.write_all(b"{\"verb\":\"health\"}\n").unwrap();
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).expect("a health reply within the read timeout");
    reply
}

#[test]
fn idle_connections_do_not_starve_the_worker_pool() {
    let workers = 2;
    let config = DaemonConfig { workers, idle_timeout: IDLE, ..Default::default() };
    let daemon = Daemon::start(config).unwrap();
    let addr = daemon.local_addr();

    // One silent connection per worker: every worker blocks reading it.
    let mut idle: Vec<TcpStream> =
        (0..workers).map(|_| TcpStream::connect(addr).unwrap()).collect();
    std::thread::sleep(Duration::from_millis(50));

    let started = Instant::now();
    let probe = TcpStream::connect(addr).unwrap();
    probe.set_read_timeout(Some(PATIENCE)).unwrap();
    let reply = health(&probe);
    assert!(reply.contains("\"ok\":true"), "got {reply:?}");
    assert!(started.elapsed() < PATIENCE / 2, "health took {:?}", started.elapsed());

    // The daemon closed the silent connections.
    for stream in &mut idle {
        stream.set_read_timeout(Some(PATIENCE)).unwrap();
        let mut byte = [0u8; 1];
        assert_eq!(stream.read(&mut byte).unwrap(), 0, "idle connection left open");
    }
    drop(probe);

    let mut client = Client::connect(addr).unwrap();
    client.drain().unwrap();
    drop(client);
    daemon.join();
}

#[test]
fn a_client_active_within_the_timeout_stays_connected() {
    let config = DaemonConfig { workers: 1, idle_timeout: IDLE, ..Default::default() };
    let daemon = Daemon::start(config).unwrap();
    let stream = TcpStream::connect(daemon.local_addr()).unwrap();
    stream.set_read_timeout(Some(PATIENCE)).unwrap();
    // Requests IDLE/2 apart keep one connection alive for twice IDLE.
    for _ in 0..4 {
        assert!(health(&stream).contains("\"ok\":true"));
        std::thread::sleep(IDLE / 2);
    }
    drop(stream);

    let mut client = Client::connect(daemon.local_addr()).unwrap();
    client.drain().unwrap();
    drop(client);
    daemon.join();
}
