//! The benchmark's own client for the documented wire protocol
//! (`docs/SERVICE.md`): one JSON object per line each way over loopback
//! TCP, one reply per request, in order.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// No single reply in any workload takes this long; a wait past it is a
/// failed operation, not a hang.
const REPLY_TIMEOUT: Duration = Duration::from_secs(120);

pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    reply: String,
}

impl Conn {
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        // A request is one small write that must leave at once.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
            reply: String::new(),
        })
    }

    /// Send one request line (`line` ends in `\n`) and wait for its
    /// reply, returned without the newline.
    pub fn call(&mut self, line: &str) -> std::io::Result<&str> {
        debug_assert!(line.ends_with('\n'));
        self.writer.write_all(line.as_bytes())?;
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.reply.trim_end_matches('\n'))
    }
}

/// Whether a reply is a success envelope. Every reply starts with the
/// `ok` member (`docs/SERVICE.md`, *Responses*), so no parse is needed
/// on the hot path.
pub fn is_ok(reply: &str) -> bool {
    reply.starts_with(r#"{"ok":true"#)
}

/// Whether an answer came from the degraded tier. The member is the
/// last one of the object; a `rep` text cannot fake it because quotes
/// inside strings are escaped.
pub fn is_degraded(reply: &str) -> bool {
    reply.ends_with(r#""degraded":true}"#)
}

/// An explained reply without its trailing `profile` member: the bytes
/// the same query returns unexplained. `None` when there is no profile.
pub fn strip_profile(reply: &str) -> Option<String> {
    let at = reply.rfind(r#","profile":{"#)?;
    Some(format!("{}}}", &reply[..at]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_checks() {
        assert!(is_ok(r#"{"ok":true,"pong":true}"#));
        assert!(!is_ok(
            r#"{"ok":false,"error":{"code":"bad_request","message":"x"}}"#
        ));
        assert!(is_degraded(
            r#"{"ok":true,"epsilon":0.1,"groups":[],"degraded":true}"#
        ));
        assert!(!is_degraded(
            r#"{"ok":true,"groups":[{"rep":"\"degraded\":true}"}]}"#
        ));
    }

    #[test]
    fn profile_is_stripped_back_to_the_plain_answer() {
        let plain = r#"{"ok":true,"groups":[{"rank":1,"rep":"a"}]}"#;
        let explained = r#"{"ok":true,"groups":[{"rank":1,"rep":"a"}],"profile":{"query":"topk","stages":[{"stage":"merge","micros":7}],"total_micros":13}}"#;
        assert_eq!(strip_profile(explained).as_deref(), Some(plain));
        assert_eq!(strip_profile(plain), None);
    }
}
