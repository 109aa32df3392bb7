//! A static file server over HTTP — the separated scheme's data channel.
//!
//! In the paper's separated configuration the client saves the payload as
//! a netCDF file, and the server pulls it over HTTP from an Apache
//! instance on the client's machine. This is that Apache stand-in: GET
//! only, rooted in one directory, with path traversal rejected. It is a
//! handler on the reactor's HTTP driver, bound through
//! [`ServerBuilder`].

use std::net::SocketAddr;
use std::path::{Component, Path, PathBuf};

use crate::builder::ServerBuilder;
use crate::error::TransportResult;
use crate::http::response::HttpResponse;
use crate::reactor::server::Server;

/// A running static file server.
pub struct FileServer {
    inner: Server,
}

impl FileServer {
    /// Serve files under `root` on `addr` (port 0 for ephemeral).
    pub fn bind(addr: &str, root: impl Into<PathBuf>) -> TransportResult<FileServer> {
        let root: PathBuf = root.into();
        let inner = ServerBuilder::bind(addr).serve_http(
            || (),
            move |(), head, _body, reply, _ctl| {
                let response = if head.method != "GET" {
                    HttpResponse::bad_request("only GET is supported")
                } else {
                    match sanitize(&root, head.path).map(std::fs::read) {
                        Some(Ok(bytes)) => HttpResponse::ok("application/octet-stream", bytes),
                        Some(Err(_)) => HttpResponse::not_found(),
                        None => HttpResponse::bad_request("invalid path"),
                    }
                };
                reply.respond(response);
            },
        )?;
        Ok(FileServer { inner })
    }

    /// The address being served on.
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr()
    }

    /// Stop the server.
    pub fn shutdown(self) {
        self.inner.shutdown();
    }
}

/// Resolve a request path against the root, rejecting anything that
/// escapes it.
fn sanitize(root: &Path, request_path: &str) -> Option<PathBuf> {
    let rel = request_path.strip_prefix('/')?;
    let rel = rel.split('?').next().unwrap_or(rel); // drop query strings
    let mut out = root.to_path_buf();
    for comp in Path::new(rel).components() {
        match comp {
            Component::Normal(c) => out.push(c),
            // "." is harmless but nonstandard in URLs; anything else
            // (parent dirs, absolute roots) is rejected outright.
            Component::CurDir => {}
            _ => return None,
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::client::http_get;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bxsoap_fs_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn serves_files_and_404s() {
        let root = temp_root("serve");
        std::fs::write(root.join("data.nc"), b"CDF\x01payload").unwrap();
        let server = FileServer::bind("127.0.0.1:0", &root).unwrap();
        let addr = server.local_addr().to_string();

        assert_eq!(http_get(&addr, "/data.nc").unwrap(), b"CDF\x01payload");
        assert!(http_get(&addr, "/missing.nc").is_err());

        server.shutdown();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn rejects_traversal() {
        let root = temp_root("trav");
        let server = FileServer::bind("127.0.0.1:0", &root).unwrap();
        let addr = server.local_addr().to_string();
        let err = http_get(&addr, "/../etc/passwd").unwrap_err();
        assert!(matches!(
            err,
            crate::TransportError::HttpStatus { status: 400, .. }
        ));
        server.shutdown();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn sanitize_paths() {
        let root = Path::new("/srv/data");
        assert_eq!(
            sanitize(root, "/a/b.nc"),
            Some(PathBuf::from("/srv/data/a/b.nc"))
        );
        assert_eq!(sanitize(root, "/a/../../x"), None);
        assert_eq!(sanitize(root, "no-leading-slash"), None);
        assert_eq!(
            sanitize(root, "/f.nc?token=1"),
            Some(PathBuf::from("/srv/data/f.nc"))
        );
    }
}
