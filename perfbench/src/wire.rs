//! A blocking client for the server's line protocol.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// One reply: `ok` is false for `ERR ...`; `rows` holds the data rows of a
/// result set (cells split on tabs), empty for single-line replies.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    pub ok: bool,
    pub status: String,
    pub rows: Vec<Vec<String>>,
}

/// Row count of a result-set status line `OK <n> rows (fresh|cached)`.
fn result_rows(status: &str) -> Option<usize> {
    let rest = status.strip_prefix("OK ")?;
    let (n, tail) = rest.split_once(' ')?;
    if tail == "rows (fresh)" || tail == "rows (cached)" {
        n.parse().ok()
    } else {
        None
    }
}

pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    /// Connect and consume the banner line.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let mut conn = Conn {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            line: String::new(),
        };
        conn.read_line()?;
        Ok(conn)
    }

    /// Send request text (one or more newline-terminated commands).
    pub fn send(&mut self, text: &str) -> io::Result<()> {
        self.writer.write_all(text.as_bytes())
    }

    /// A second handle on the socket for a sender thread.
    pub fn try_clone_writer(&self) -> io::Result<TcpStream> {
        self.writer.try_clone()
    }

    fn read_line(&mut self) -> io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.line.trim_end_matches(['\r', '\n']))
    }

    /// Read one complete reply.
    pub fn read_reply(&mut self) -> io::Result<Reply> {
        let status = self.read_line()?.to_string();
        let mut reply = Reply {
            ok: status.starts_with("OK") || status == "PONG",
            status,
            rows: Vec::new(),
        };
        if let Some(n) = result_rows(&reply.status) {
            self.read_line()?; // header
            for _ in 0..n {
                let row = self.read_line()?.split('\t').map(str::to_string).collect();
                reply.rows.push(row);
            }
            let end = self.read_line()?;
            if end != "END" {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected END, got {end:?}"),
                ));
            }
        }
        Ok(reply)
    }

    /// Send one command and read its reply.
    pub fn call(&mut self, command: &str) -> io::Result<Reply> {
        self.send(&format!("{command}\n"))?;
        self.read_reply()
    }
}
