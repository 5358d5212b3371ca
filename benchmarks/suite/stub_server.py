"""A canned-response HTTP stub: the load generator's ceiling is taken on it.

``python3 stub_server.py BODY_BYTES`` answers every request on a keep-alive
connection with the same ``200`` response of ``BODY_BYTES`` bytes, doing no
work of its own, and prints ``STUB READY <port>`` once it listens.  What the
generator sustains against it is the most it could ever report for a real
server; a measured throughput near that number says the generator, not the
server, was the limit.
"""

import asyncio
import signal
import sys


async def serve(body_bytes: int) -> None:
    body = b"x" * body_bytes
    response = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                b"Connection: keep-alive\r\nX-UADB-Cache: hit\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body)) + body

    async def handle(reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                length = 0
                for line in head.split(b"\r\n"):
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":", 1)[1])
                if length:
                    await reader.readexactly(length)
                writer.write(response)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    print(f"STUB READY {server.sockets[0].getsockname()[1]}", flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stop.set)
    async with server:
        await stop.wait()


if __name__ == "__main__":
    asyncio.run(serve(int(sys.argv[1])))
