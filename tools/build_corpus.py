"""Regenerates the checked-in corpus/ directory.

Each scenario is four source trees: base/, left/, right/, and expected/
(the resolution a reviewer considers correct).  golden_key.json carries
the conflicts a scenario must report and the hand-assigned verdict for
each strategy.  Controls live under corpus/controls/ and must report
nothing; they are exercised by the test suite, not by the evaluator.

Run from the repository root:  python tools/build_corpus.py
"""

from __future__ import annotations

import json
import shutil
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

SCENARIOS: dict[str, dict] = {}
CONTROLS: dict[str, dict] = {}


def scenario(name: str, *, base: dict, left: dict, right: dict,
             expected: dict, golden: dict) -> None:
    SCENARIOS[name] = {"base": base, "left": left, "right": right,
                       "expected": expected, "golden": golden}


def control(name: str, *, base: dict, left: dict, right: dict) -> None:
    CONTROLS[name] = {"base": base, "left": left, "right": right}


def j(text: str) -> str:
    return textwrap.dedent(text).lstrip("\n")


# ===========================================================================
# motivating scenario: class renamed on one side, new user added on the
# other; the left branch also adapted an existing user, which seeds the
# example-based strategy


_TSC_BASE = j("""
    package com.hazelcast.config;

    public class TypeSerializerConfig {
        private String className;
        private String typeClassName;

        public TypeSerializerConfig() {
        }

        public void setClassName(String className) {
            this.className = className;
        }

        public void setTypeClassName(String typeClassName) {
            this.typeClassName = typeClassName;
        }
    }
""")

_SC_LEFT = _TSC_BASE.replace("TypeSerializerConfig", "SerializerConfig")

_XCB_HELPERS = j("""
        private Iterable<Node> childElements(Node node) {
            return null;
        }

        private String cleanNodeName(Node child) {
            return null;
        }

        private String getAttribute(Node node, String name) {
            return null;
        }
""").rstrip()

_XCB_BASE = j("""
    package com.hazelcast.config;

    public class XmlConfigBuilder {
        private void handleSerializers(final Node node) {
            for (Node child : childElements(node)) {
                final String name = cleanNodeName(child);
                if ("type-serializer".equals(name)) {
                    TypeSerializerConfig serializerConfig = new TypeSerializerConfig();
                    serializerConfig.setClassName(getAttribute(child, "class-name"));
                    final String typeClassName = getAttribute(child, "type-class");
                    serializerConfig.setTypeClassName(typeClassName);
                    addTypeSerializer(serializerConfig);
                }
            }
        }

    %s

        private void addTypeSerializer(TypeSerializerConfig serializerConfig) {
        }
    }
""") % _XCB_HELPERS

_XCB_LEFT = j("""
    package com.hazelcast.config;

    public class XmlConfigBuilder {
        private void handleSerializers(final Node node) {
            for (Node child : childElements(node)) {
                final String name = cleanNodeName(child);
                if ("serializer".equals(name)) {
                    SerializerConfig serializer = new SerializerConfig();
                    serializer.setClassName(getAttribute(child, "class-name"));
                    final String typeClassName = getAttribute(child, "type-class");
                    serializer.setTypeClassName(typeClassName);
                    addSerializerConfig(serializer);
                }
            }
        }

    %s

        private void addSerializerConfig(SerializerConfig serializerConfig) {
        }
    }
""") % _XCB_HELPERS

_XCCB_RIGHT = j("""
    package com.hazelcast.config;

    public class XmlClientConfigBuilder {
        private void handleSerializers(final Node node) {
            for (Node child : childElements(node)) {
                final String name2 = cleanNodeName(child);
                if ("type-serializer".equals(name2)) {
                    TypeSerializerConfig serializerConfig = new TypeSerializerConfig();
                    serializerConfig.setClassName(getAttribute(child, "class-name"));
                    final String typeClassName = getAttribute(child, "type-class");
                    serializerConfig.setTypeClassName(typeClassName);
                    addTypeSerializer(serializerConfig);
                }
            }
        }

    %s

        private void addTypeSerializer(TypeSerializerConfig serializerConfig) {
        }
    }
""") % _XCB_HELPERS

_XCCB_EXPECTED = j("""
    package com.hazelcast.config;

    public class XmlClientConfigBuilder {
        private void handleSerializers(final Node node) {
            for (Node child : childElements(node)) {
                final String name2 = cleanNodeName(child);
                if ("serializer".equals(name2)) {
                    SerializerConfig serializer = new SerializerConfig();
                    serializer.setClassName(getAttribute(child, "class-name"));
                    final String typeClassName = getAttribute(child, "type-class");
                    serializer.setTypeClassName(typeClassName);
                    addSerializerConfig(serializer);
                }
            }
        }

    %s

        private void addTypeSerializer(TypeSerializerConfig serializerConfig) {
        }
    }
""") % _XCB_HELPERS

scenario(
    "serializer-rename",
    base={"TypeSerializerConfig.java": _TSC_BASE,
          "XmlConfigBuilder.java": _XCB_BASE},
    left={"SerializerConfig.java": _SC_LEFT,
          "XmlConfigBuilder.java": _XCB_LEFT},
    right={"TypeSerializerConfig.java": _TSC_BASE,
           "XmlConfigBuilder.java": _XCB_BASE,
           "XmlClientConfigBuilder.java": _XCCB_RIGHT},
    expected={"SerializerConfig.java": _SC_LEFT,
              "XmlConfigBuilder.java": _XCB_LEFT,
              "XmlClientConfigBuilder.java": _XCCB_EXPECTED},
    golden={
        "conflicts": [{"type": "C1",
                       "subject": "com.hazelcast.config.TypeSerializerConfig"}],
        "example": "correct",
        "rule": "incorrect",
    },
)


# ===========================================================================
# callback-ref-rename: method renamed on the right, call added on the left;
# nothing in the base calls the method, so only the fixed rule applies


_PIO_BASE = j("""
    package sw.models;

    public class PathItemObject {
        private String ref;

        public void setRef(String ref) {
            this.ref = ref;
        }
    }
""")

_PIO_RIGHT = j("""
    package sw.models;

    public class PathItemObject {
        private String ref;

        public void set$ref(String ref) {
            this.ref = ref;
        }
    }
""")

_CBM_LEFT = j("""
    package sw.models;

    public class CallbackMapper {
        public void map(ApiCallback apiCallback) {
            PathItemObject pathItemObject = new PathItemObject();
            pathItemObject.setRef(apiCallback.callbackUrlExpression());
        }
    }
""")

_CBM_EXPECTED = j("""
    package sw.models;

    public class CallbackMapper {
        public void map(ApiCallback apiCallback) {
            PathItemObject pathItemObject = new PathItemObject();
            pathItemObject.set$ref(apiCallback.callbackUrlExpression());
        }
    }
""")

scenario(
    "callback-ref-rename",
    base={"PathItemObject.java": _PIO_BASE},
    left={"PathItemObject.java": _PIO_BASE,
          "CallbackMapper.java": _CBM_LEFT},
    right={"PathItemObject.java": _PIO_RIGHT},
    expected={"PathItemObject.java": _PIO_RIGHT,
              "CallbackMapper.java": _CBM_EXPECTED},
    golden={
        "conflicts": [{"type": "C15",
                       "subject": "sw.models.PathItemObject.setRef(String)"}],
        "example": None,
        "rule": "correct",
    },
)


# ===========================================================================
# cluster-field-removed: a field is gone on the left, which also adapted
# the one command that read it; the right adds a command reading the field


_BJC_BASE = j("""
    package redis.clients.jedis;

    public class BinaryJedisCluster {
        protected JedisClusterConnectionHandler connectionHandler;
        protected int timeout;
        protected int maxRedirections;

        public String save(String key) {
            return new JedisClusterCommand<String>(connectionHandler, timeout, maxRedirections).run(key);
        }
    }
""")

_BJC_LEFT = j("""
    package redis.clients.jedis;

    public class BinaryJedisCluster {
        protected JedisClusterConnectionHandler connectionHandler;
        protected int maxRedirections;

        public String save(String key) {
            return new JedisClusterCommand<String>(connectionHandler, maxRedirections).run(key);
        }
    }
""")

_BJC_RIGHT = j("""
    package redis.clients.jedis;

    public class BinaryJedisCluster {
        protected JedisClusterConnectionHandler connectionHandler;
        protected int timeout;
        protected int maxRedirections;

        public String save(String key) {
            return new JedisClusterCommand<String>(connectionHandler, timeout, maxRedirections).run(key);
        }

        public String spop(String key) {
            return new JedisClusterCommand<String>(connectionHandler, timeout, maxRedirections).run(key);
        }
    }
""")

_BJC_EXPECTED = j("""
    package redis.clients.jedis;

    public class BinaryJedisCluster {
        protected JedisClusterConnectionHandler connectionHandler;
        protected int maxRedirections;

        public String save(String key) {
            return new JedisClusterCommand<String>(connectionHandler, maxRedirections).run(key);
        }

        public String spop(String key) {
            return new JedisClusterCommand<String>(connectionHandler, maxRedirections).run(key);
        }
    }
""")

scenario(
    "cluster-field-removed",
    base={"BinaryJedisCluster.java": _BJC_BASE},
    left={"BinaryJedisCluster.java": _BJC_LEFT},
    right={"BinaryJedisCluster.java": _BJC_RIGHT},
    expected={"BinaryJedisCluster.java": _BJC_EXPECTED},
    golden={
        "conflicts": [{"type": "C20",
                       "subject": "redis.clients.jedis.BinaryJedisCluster.timeout"}],
        "example": "correct",
        "rule": None,
    },
)


# ===========================================================================
# serialization-service-moved: accessor deleted from a base class (moved
# to the context object); the right adds a proxy calling it twice, and the
# one mined example only reaches the first call


_CMAP_BASE = j("""
    package com.hazelcast.client.proxy;

    public class ClientMap {
        public SerializationService getSerializationService() {
            return null;
        }

        public ClientContext getContext() {
            return null;
        }
    }
""")

_CMAP_LEFT = j("""
    package com.hazelcast.client.proxy;

    public class ClientMap {
        public ClientContext getContext() {
            return null;
        }
    }
""")

_CCTX_BASE = j("""
    package com.hazelcast.client.proxy;

    public class ClientContext {
        public void shutdown() {
        }
    }
""")

_CCTX_LEFT = j("""
    package com.hazelcast.client.proxy;

    public class ClientContext {
        public SerializationService getSerializationService() {
            return null;
        }

        public void shutdown() {
        }
    }
""")

_CMP_BASE = j("""
    package com.hazelcast.client.proxy;

    public class ClientMapProxy extends ClientMap {
        public Data get(Object key) {
            Data keyData = getSerializationService().toData(key);
            return keyData;
        }
    }
""")

_CMP_LEFT = j("""
    package com.hazelcast.client.proxy;

    public class ClientMapProxy extends ClientMap {
        public Data get(Object key) {
            Data keyData = getContext().getSerializationService().toData(key);
            return keyData;
        }
    }
""")

_CMMP_RIGHT = j("""
    package com.hazelcast.client.proxy;

    public class ClientMultiMapProxy extends ClientMap {
        public void put(Object key, Object value) {
            Data keyData = getSerializationService().toData(key);
            Data valueData = getSerializationService().toData(value);
            store(keyData, valueData);
        }

        public void store(Data k, Data v) {
        }
    }
""")

_CMMP_EXPECTED = j("""
    package com.hazelcast.client.proxy;

    public class ClientMultiMapProxy extends ClientMap {
        public void put(Object key, Object value) {
            Data keyData = getContext().getSerializationService().toData(key);
            Data valueData = getContext().getSerializationService().toData(value);
            store(keyData, valueData);
        }

        public void store(Data k, Data v) {
        }
    }
""")

scenario(
    "serialization-service-moved",
    base={"ClientMap.java": _CMAP_BASE, "ClientContext.java": _CCTX_BASE,
          "ClientMapProxy.java": _CMP_BASE},
    left={"ClientMap.java": _CMAP_LEFT, "ClientContext.java": _CCTX_LEFT,
          "ClientMapProxy.java": _CMP_LEFT},
    right={"ClientMap.java": _CMAP_BASE, "ClientContext.java": _CCTX_BASE,
           "ClientMapProxy.java": _CMP_BASE,
           "ClientMultiMapProxy.java": _CMMP_RIGHT},
    expected={"ClientMap.java": _CMAP_LEFT, "ClientContext.java": _CCTX_LEFT,
              "ClientMapProxy.java": _CMP_LEFT,
              "ClientMultiMapProxy.java": _CMMP_EXPECTED},
    golden={
        "conflicts": [{
            "type": "C23",
            "subject": "com.hazelcast.client.proxy.ClientMap."
                       "getSerializationService()"}],
        "example": "incorrect",
        "rule": None,
    },
)


# ===========================================================================
# client-ctor-params: the right inserts a constructor parameter and adapts
# the one existing caller; the left adds a builder still on the old shape


_RC_BASE = j("""
    package com.lambdaworks.redis;

    public class RedisClient {
        public RedisClient(Timer timer, EventLoopGroup group, Class socketChannelClass, String host, int port, long connectTimeout, long commandTimeout) {
        }
    }
""")

_RC_RIGHT = j("""
    package com.lambdaworks.redis;

    public class RedisClient {
        public RedisClient(Timer timer, ExecutorService executor, EventLoopGroup group, Class socketChannelClass, String host, int port, long connectTimeout, long commandTimeout) {
        }
    }
""")

_CB_BASE = j("""
    package com.lambdaworks.redis;

    public class ClientBuilder {
        private Timer timer;
        private EventLoopGroup group;
        private Class socketChannelClass;
        private String host;
        private int port;
        private long connectTimeout;
        private long commandTimeout;

        public RedisClient build() {
            return new RedisClient(timer, group, socketChannelClass, host, port, connectTimeout, commandTimeout);
        }
    }
""")

_CB_RIGHT = j("""
    package com.lambdaworks.redis;

    public class ClientBuilder {
        private Timer timer;
        private EventLoopGroup group;
        private Class socketChannelClass;
        private String host;
        private int port;
        private long connectTimeout;
        private long commandTimeout;

        public RedisClient build() {
            return new RedisClient(timer, Executors.newFixedThreadPool(Runtime.getRuntime().availableProcessors() * 2), group, socketChannelClass, host, port, connectTimeout, commandTimeout);
        }
    }
""")

_FB_LEFT = j("""
    package com.lambdaworks.redis;

    public class FailoverBuilder {
        private Timer timer;
        private EventLoopGroup group;
        private Class socketChannelClass;
        private String host;
        private int port;
        private long connectTimeout;
        private long commandTimeout;

        public RedisClient createFailover() {
            return new RedisClient(timer, group, socketChannelClass, host, port, connectTimeout, commandTimeout);
        }
    }
""")

_FB_EXPECTED = j("""
    package com.lambdaworks.redis;

    public class FailoverBuilder {
        private Timer timer;
        private EventLoopGroup group;
        private Class socketChannelClass;
        private String host;
        private int port;
        private long connectTimeout;
        private long commandTimeout;
    }
""")

scenario(
    "client-ctor-params",
    base={"RedisClient.java": _RC_BASE, "ClientBuilder.java": _CB_BASE},
    left={"RedisClient.java": _RC_BASE, "ClientBuilder.java": _CB_BASE,
          "FailoverBuilder.java": _FB_LEFT},
    right={"RedisClient.java": _RC_RIGHT, "ClientBuilder.java": _CB_RIGHT},
    expected={"RedisClient.java": _RC_RIGHT,
              "ClientBuilder.java": _CB_RIGHT,
              "FailoverBuilder.java": _FB_EXPECTED},
    golden={
        "conflicts": [{
            "type": "C18",
            "subject": "com.lambdaworks.redis.RedisClient.RedisClient("
                       "Timer,EventLoopGroup,Class,String,int,long,long)"}],
        "example": "incorrect",
        "rule": None,
    },
)


# ===========================================================================
# introspector-import: unused import dropped on the left while the right
# starts using it; the fixed rule re-adds the import, the reviewer rewrote
# the call instead


_TU_BASE = j("""
    package fj.data;

    import java.beans.Introspector;

    public class TypeUtils {
        public static String name(String methodName, boolean compatibleWithJavaBean) {
            String propertyName = methodName;
            return propertyName;
        }
    }
""")

_TU_LEFT = j("""
    package fj.data;

    public class TypeUtils {
        public static String name(String methodName, boolean compatibleWithJavaBean) {
            String propertyName = methodName;
            return propertyName;
        }
    }
""")

_TU_RIGHT = j("""
    package fj.data;

    import java.beans.Introspector;

    public class TypeUtils {
        public static String name(String methodName, boolean compatibleWithJavaBean) {
            String propertyName = methodName;
            if (compatibleWithJavaBean) {
                propertyName = Introspector.decapitalize(methodName.substring(3));
            }
            return propertyName;
        }
    }
""")

_TU_EXPECTED = j("""
    package fj.data;

    public class TypeUtils {
        public static String name(String methodName, boolean compatibleWithJavaBean) {
            String propertyName = methodName;
            if (compatibleWithJavaBean) {
                propertyName = decapitalize(methodName.substring(3));
            }
            return propertyName;
        }

        private static String decapitalize(String name) {
            return name;
        }
    }
""")

scenario(
    "introspector-import",
    base={"TypeUtils.java": _TU_BASE},
    left={"TypeUtils.java": _TU_LEFT},
    right={"TypeUtils.java": _TU_RIGHT},
    expected={"TypeUtils.java": _TU_EXPECTED},
    golden={
        "conflicts": [{"type": "C5",
                       "subject": "java.beans.Introspector"}],
        "example": None,
        "rule": "incorrect",
    },
)


# ===========================================================================
# taxonomy fixtures: one scenario per conflict type, detection-focused


_COLOR = j("""
    package paint;

    public class Color {
        public int red;
        public int green;
        public int blue;
    }
""")

scenario(
    "tax-c01",
    base={"Color.java": _COLOR,
          "Painter.java": j("""
              package paint;

              public class Painter {
                  public void clear() {
                  }
              }
          """)},
    left={"Hue.java": _COLOR.replace("Color", "Hue"),
          "Painter.java": j("""
              package paint;

              public class Painter {
                  public void clear() {
                  }
              }
          """)},
    right={"Color.java": _COLOR,
           "Painter.java": j("""
               package paint;

               public class Painter {
                   public void clear() {
                   }
               }
           """),
           "Canvas.java": j("""
               package paint;

               public class Canvas {
                   public void fill() {
                       Color c = new Color();
                       c.red = 255;
                   }
               }
           """)},
    expected={"Hue.java": _COLOR.replace("Color", "Hue"),
              "Painter.java": j("""
                  package paint;

                  public class Painter {
                      public void clear() {
                      }
                  }
              """),
              "Canvas.java": j("""
                  package paint;

                  public class Canvas {
                      public void fill() {
                          Hue c = new Hue();
                          c.red = 255;
                      }
                  }
              """)},
    golden={"conflicts": [{"type": "C1", "subject": "paint.Color"}],
            "sites": [{"entity": "paint.Canvas.fill()",
                       "file": "Canvas.java"}],
            "example": None, "rule": "correct"},
)


scenario(
    "tax-c02",
    base={"Base.java": j("""
              package hier2;

              public class Base {
                  public void ping() {
                  }
              }
          """)},
    left={"Base.java": j("""
              package hier2;

              public class Base {
                  public void ping() {
                  }

                  protected int size() {
                      return 1;
                  }
              }
          """)},
    right={"Base.java": j("""
               package hier2;

               public class Base {
                   public void ping() {
                   }
               }
           """),
           "Child.java": j("""
               package hier2;

               public class Child extends Base {
                   protected long size() {
                       return 2;
                   }
               }
           """)},
    expected={"Base.java": j("""
                  package hier2;

                  public class Base {
                      public void ping() {
                      }

                      protected int size() {
                          return 1;
                      }
                  }
              """),
              "Child.java": j("""
                  package hier2;

                  public class Child extends Base {
                      protected int size() {
                          return 2;
                      }
                  }
              """)},
    golden={"conflicts": [{"type": "C2", "subject": "hier2.Base.size()"}],
            "sites": [{"entity": "hier2.Child.size()",
                       "file": "Child.java"}],
            "example": None, "rule": "correct"},
)


scenario(
    "tax-c03",
    base={"Shape.java": j("""
              package geo;

              public class Shape {
                  public void scale(int factor) {
                  }
              }
          """)},
    left={"Shape.java": j("""
              package geo;

              public class Shape {
                  public void scale(int factor, boolean deep) {
                  }
              }
          """)},
    right={"Shape.java": j("""
               package geo;

               public class Shape {
                   public void scale(int factor) {
                   }
               }
           """),
           "Circle.java": j("""
               package geo;

               public class Circle extends Shape {
                   public void scale(int factor) {
                   }
               }
           """)},
    expected={"Shape.java": j("""
                  package geo;

                  public class Shape {
                      public void scale(int factor, boolean deep) {
                      }
                  }
              """),
              "Circle.java": j("""
                  package geo;

                  public class Circle extends Shape {
                      public void scale(int factor, boolean deep) {
                      }
                  }
              """)},
    golden={"conflicts": [{"type": "C3", "subject": "geo.Shape.scale(int)"}],
            "sites": [{"entity": "geo.Circle.scale(int)",
                       "file": "Circle.java"}],
            "example": None, "rule": "correct"},
)


scenario(
    "tax-c04",
    base={"Box.java": j("""
              package pack;

              public class Box {
                  public int depth() {
                      return 0;
                  }
              }
          """)},
    left={"Box.java": j("""
              package pack;

              public class Box {
                  public long depth() {
                      return 0;
                  }
              }
          """)},
    right={"Box.java": j("""
               package pack;

               public class Box {
                   public int depth() {
                       return 0;
                   }
               }
           """),
           "Crate.java": j("""
               package pack;

               public class Crate extends Box {
                   public int depth() {
                       return 1;
                   }
               }
           """)},
    expected={"Box.java": j("""
                  package pack;

                  public class Box {
                      public long depth() {
                          return 0;
                      }
                  }
              """),
              "Crate.java": j("""
                  package pack;

                  public class Crate extends Box {
                      public long depth() {
                          return 1;
                      }
                  }
              """)},
    golden={"conflicts": [{"type": "C4", "subject": "pack.Box.depth()"}],
            "sites": [{"entity": "pack.Crate.depth()",
                       "file": "Crate.java"}],
            "example": None, "rule": "correct"},
)


scenario(
    "tax-c05",
    base={"Tool.java": j("""
              package util2;

              import java.util.ArrayList;

              public class Tool {
                  public void run() {
                  }
              }
          """)},
    left={"Tool.java": j("""
              package util2;

              public class Tool {
                  public void run() {
                  }
              }
          """)},
    right={"Tool.java": j("""
               package util2;

               import java.util.ArrayList;

               public class Tool {
                   public void run() {
                   }

                   public void collect() {
                       ArrayList items = null;
                       items.add("x");
                   }
               }
           """)},
    expected={"Tool.java": j("""
                  package util2;

                  import java.util.ArrayList;

                  public class Tool {
                      public void run() {
                      }

                      public void collect() {
                          ArrayList items = null;
                          items.add("x");
                      }
                  }
              """)},
    golden={"conflicts": [{"type": "C5", "subject": "java.util.ArrayList"}],
            "sites": [{"entity": "util2.Tool.collect()",
                       "file": "Tool.java"}],
            "example": None, "rule": "correct"},
)


_UTIL_OLD = j("""
    package old.name;

    public class Util {
        public static void help() {
        }
    }
""")

scenario(
    "tax-c06",
    base={"old/name/Util.java": _UTIL_OLD},
    left={"new/name/Util.java": _UTIL_OLD.replace("old.name", "new.name")},
    right={"old/name/Util.java": _UTIL_OLD,
           "app/Extra.java": j("""
               package app;

               import old.name.Util;

               public class Extra {
                   public void use() {
                       Util.help();
                   }
               }
           """)},
    expected={"new/name/Util.java": _UTIL_OLD.replace("old.name",
                                                      "new.name"),
              "app/Extra.java": j("""
                  package app;

                  import new.name.Util;

                  public class Extra {
                      public void use() {
                          Util.help();
                      }
                  }
              """)},
    golden={"conflicts": [{"type": "C6", "subject": "old.name"}],
            "sites": [{"entity": "app.Extra", "file": "app/Extra.java"}],
            "example": None, "rule": "correct"},
)


scenario(
    "tax-c08",
    base={"Engine.java": j("""
              package power;

              public interface Engine {
                  void start();
              }
          """)},
    left={"Engine.java": j("""
              package power;

              public interface Engine {
                  void start();

                  int rpm();
              }
          """)},
    right={"Engine.java": j("""
               package power;

               public interface Engine {
                   void start();
               }
           """),
           "Diesel.java": j("""
               package power;

               public class Diesel implements Engine {
                   public void start() {
                   }
               }
           """)},
    expected={"Engine.java": j("""
                  package power;

                  public interface Engine {
                      void start();

                      int rpm();
                  }
              """),
              "Diesel.java": j("""
                  package power;

                  public class Diesel implements Engine {
                      public void start() {
                      }

                      public int rpm() {
                          return 0;
                      }
                  }
              """)},
    golden={"conflicts": [{"type": "C8", "subject": "power.Engine.rpm()"}],
            "sites": [{"entity": "power.Diesel", "file": "Diesel.java"}],
            "example": None, "rule": "correct"},
)


scenario(
    "tax-c09",
    base={"Codec.java": j("""
              package cdc;

              public interface Codec {
                  void encode(String s);
              }
          """)},
    left={"Codec.java": j("""
              package cdc;

              public interface Codec {
                  void encode(String s, int level);
              }
          """)},
    right={"Codec.java": j("""
               package cdc;

               public interface Codec {
                   void encode(String s);
               }
           """),
           "Gzip.java": j("""
               package cdc;

               public class Gzip implements Codec {
                   public void encode(String s) {
                   }
               }
           """)},
    expected={"Codec.java": j("""
                  package cdc;

                  public interface Codec {
                      void encode(String s, int level);
                  }
              """),
              "Gzip.java": j("""
                  package cdc;

                  public class Gzip implements Codec {
                      public void encode(String s, int level) {
                      }
                  }
              """)},
    golden={"conflicts": [{"type": "C9",
                           "subject": "cdc.Codec.encode(String)"}],
            "sites": [{"entity": "cdc.Gzip.encode(String)",
                       "file": "Gzip.java"}],
            "example": None, "rule": "correct"},
)


scenario(
    "tax-c10",
    base={"Sink.java": j("""
              package io2;

              public interface Sink {
                  void flush();

                  void drain();
              }
          """)},
    left={"Sink.java": j("""
              package io2;

              public interface Sink {
                  void flush();
              }
          """)},
    right={"Sink.java": j("""
               package io2;

               public interface Sink {
                   void flush();

                   void drain();
               }
           """),
           "FileSink.java": j("""
               package io2;

               public class FileSink implements Sink {
                   public void flush() {
                   }

                   public void drain() {
                   }
               }
           """)},
    expected={"Sink.java": j("""
                  package io2;

                  public interface Sink {
                      void flush();
                  }
              """),
              "FileSink.java": j("""
                  package io2;

                  public class FileSink implements Sink {
                      public void flush() {
                      }
                  }
              """)},
    golden={"conflicts": [{"type": "C10", "subject": "io2.Sink.drain()"}],
            "sites": [{"entity": "io2.FileSink.drain()",
                       "file": "FileSink.java"}],
            "example": None, "rule": "correct"},
)


scenario(
    "tax-c11",
    base={"Mapper.java": j("""
              package fn;

              public interface Mapper {
                  String map(String in);
              }
          """)},
    left={"Mapper.java": j("""
              package fn;

              public interface Mapper {
                  String transform(String in);
              }
          """)},
    right={"Mapper.java": j("""
               package fn;

               public interface Mapper {
                   String map(String in);
               }
           """),
           "UpperMapper.java": j("""
               package fn;

               public class UpperMapper implements Mapper {
                   public String map(String in) {
                       return in;
                   }
               }
           """)},
    expected={"Mapper.java": j("""
                  package fn;

                  public interface Mapper {
                      String transform(String in);
                  }
              """),
              "UpperMapper.java": j("""
                  package fn;

                  public class UpperMapper implements Mapper {
                      public String transform(String in) {
                          return in;
                      }
                  }
              """)},
    golden={"conflicts": [{"type": "C11", "subject": "fn.Mapper.map(String)"}],
            "sites": [{"entity": "fn.UpperMapper.map(String)",
                       "file": "UpperMapper.java"}],
            "example": None, "rule": "correct"},
)


scenario(
    "tax-c12",
    base={"Task.java": j("""
              package jobs;

              public interface Task {
                  int run();
              }
          """),
          "Job.java": j("""
              package jobs;

              public class Job {
                  public int run() {
                      return 0;
                  }
              }
          """)},
    left={"Task.java": j("""
              package jobs;

              public interface Task {
                  int run();
              }
          """),
          "Job.java": j("""
              package jobs;

              public class Job implements Task {
                  public int run() {
                      return 0;
                  }
              }
          """)},
    right={"Task.java": j("""
               package jobs;

               public interface Task {
                   int run();
               }
           """),
           "Job.java": j("""
               package jobs;

               public class Job {
                   public long run() {
                       return 0;
                   }
               }
           """)},
    expected={"Task.java": j("""
                  package jobs;

                  public interface Task {
                      int run();
                  }
              """),
              "Job.java": j("""
                  package jobs;

                  public class Job implements Task {
                      public int run() {
                          return 0;
                      }
                  }
              """)},
    golden={"conflicts": [{"type": "C12", "subject": "jobs.Job"}],
            "sites": [{"entity": "jobs.Job.run()", "file": "Job.java"}],
            "example": None, "rule": "correct"},
)


scenario(
    "tax-c14",
    base={"Config.java": j("""
              package conf;

              public class Config {
                  private int port;

                  public void touch() {
                  }
              }
          """)},
    left={"Config.java": j("""
              package conf;

              public class Config {
                  private int port;

                  private String host = "a";

                  public void touch() {
                  }
              }
          """)},
    right={"Config.java": j("""
               package conf;

               public class Config {
                   private int port;

                   public void touch() {
                   }

                   private String host = "b";
               }
           """)},
    expected={"Config.java": j("""
                  package conf;

                  public class Config {
                      private int port;

                      private String host = "a";

                      public void touch() {
                      }
                  }
              """)},
    golden={"conflicts": [{"type": "C14", "subject": "conf.Config.host"}],
            "sites": [{"entity": "conf.Config.host", "file": "Config.java"},
                      {"entity": "conf.Config.host#2",
                       "file": "Config.java"}],
            "example": None, "rule": "correct"},
)


scenario(
    "tax-c15",
    base={"Logger.java": j("""
              package logx;

              public class Logger {
                  public void log(String m) {
                  }

                  public void warn(String m) {
                      log(m);
                  }
              }
          """)},
    left={"Logger.java": j("""
              package logx;

              public class Logger {
                  public void record(String m) {
                  }

                  public void warn(String m) {
                      record(m);
                  }
              }
          """)},
    right={"Logger.java": j("""
               package logx;

               public class Logger {
                   public void log(String m) {
                   }

                   public void warn(String m) {
                       log(m);
                   }

                   public void error(String m) {
                       log(m);
                   }
               }
           """)},
    expected={"Logger.java": j("""
                  package logx;

                  public class Logger {
                      public void record(String m) {
                      }

                      public void warn(String m) {
                          record(m);
                      }

                      public void error(String m) {
                          record(m);
                      }
                  }
              """)},
    golden={"conflicts": [{"type": "C15",
                           "subject": "logx.Logger.log(String)"}],
            "sites": [{"entity": "logx.Logger.error(String)",
                       "file": "Logger.java"}],
            "example": "correct", "rule": "correct"},
)


scenario(
    "tax-c16",
    base={"Store.java": j("""
              package inv;

              public class Store {
                  private int size;

                  public void open() {
                  }
              }
          """)},
    left={"Store.java": j("""
              package inv;

              public class Store {
                  private int size;

                  public int count() {
                      return size;
                  }

                  public void open() {
                  }
              }
          """)},
    right={"Store.java": j("""
               package inv;

               public class Store {
                   private int size;

                   public void open() {
                   }

                   public int count() {
                       return 0;
                   }
               }
           """)},
    expected={"Store.java": j("""
                  package inv;

                  public class Store {
                      private int size;

                      public int count() {
                          return size;
                      }

                      public void open() {
                      }
                  }
              """)},
    golden={"conflicts": [{"type": "C16", "subject": "inv.Store.count()"}],
            "sites": [{"entity": "inv.Store.count()", "file": "Store.java"},
                      {"entity": "inv.Store.count()#2",
                       "file": "Store.java"}],
            "example": None, "rule": "correct"},
)


_LEGACY = j("""
    package lgc;

    public class Legacy {
        public static void init() {
        }
    }
""")

_MODERN = j("""
    package lgc;

    public class Modern {
        public static void init() {
            int ready = 1;
        }
    }
""")

scenario(
    "tax-c17",
    base={"Legacy.java": _LEGACY,
          "Modern.java": _MODERN,
          "App.java": j("""
              package lgc;

              public class App {
                  public void boot() {
                      Legacy.init();
                  }
              }
          """)},
    left={"Modern.java": _MODERN,
          "App.java": j("""
              package lgc;

              public class App {
                  public void boot() {
                      Modern.init();
                  }
              }
          """)},
    right={"Legacy.java": _LEGACY,
           "Modern.java": _MODERN,
           "App.java": j("""
               package lgc;

               public class App {
                   public void boot() {
                       Legacy.init();
                   }

                   public void reboot() {
                       Legacy.init();
                   }
               }
           """)},
    expected={"Modern.java": _MODERN,
              "App.java": j("""
                  package lgc;

                  public class App {
                      public void boot() {
                          Modern.init();
                      }

                      public void reboot() {
                          Modern.init();
                      }
                  }
              """)},
    golden={"conflicts": [{"type": "C17", "subject": "lgc.Legacy"}],
            "sites": [{"entity": "lgc.App.reboot()", "file": "App.java"}],
            "example": "correct", "rule": None},
)


scenario(
    "tax-c18",
    base={"Client.java": j("""
              package net2;

              public class Client {
                  public Client(String host) {
                  }
              }
          """)},
    left={"Client.java": j("""
              package net2;

              public class Client {
                  public Client(String host) {
                  }
              }
          """),
          "Dialer.java": j("""
              package net2;

              public class Dialer {
                  public Client open() {
                      return new Client("x");
                  }
              }
          """)},
    right={"Client.java": j("""
               package net2;

               public class Client {
                   public Client(String host, int port) {
                   }
               }
           """)},
    expected={"Client.java": j("""
                  package net2;

                  public class Client {
                      public Client(String host, int port) {
                      }
                  }
              """),
              "Dialer.java": j("""
                  package net2;

                  public class Dialer {
                      public Client open() {
                          return new Client("x", 0);
                      }
                  }
              """)},
    golden={"conflicts": [{"type": "C18",
                           "subject": "net2.Client.Client(String)"}],
            "sites": [{"entity": "net2.Dialer.open()",
                       "file": "Dialer.java"}],
            "example": None, "rule": None},
)


scenario(
    "tax-c19",
    base={"Options.java": j("""
              package cfg;

              public class Options {
                  protected int retries;

                  public int backoff() {
                      int r = retries;
                      return r * 2;
                  }
              }
          """)},
    left={"Options.java": j("""
              package cfg;

              public class Options {
                  protected long retries;

                  public int backoff() {
                      int r = (int) retries;
                      return r * 2;
                  }
              }
          """)},
    right={"Options.java": j("""
               package cfg;

               public class Options {
                   protected int retries;

                   public int backoff() {
                       int r = retries;
                       return r * 2;
                   }

                   public int remaining() {
                       int r = retries;
                       return r;
                   }
               }
           """)},
    expected={"Options.java": j("""
                  package cfg;

                  public class Options {
                      protected long retries;

                      public int backoff() {
                          int r = (int) retries;
                          return r * 2;
                      }

                      public int remaining() {
                          int r = (int) retries;
                          return r;
                      }
                  }
              """)},
    golden={"conflicts": [{"type": "C19", "subject": "cfg.Options.retries"}],
            "sites": [{"entity": "cfg.Options.remaining()",
                       "file": "Options.java"}],
            "example": "correct", "rule": None},
)


scenario(
    "tax-c20",
    base={"Pool.java": j("""
              package pools;

              public class Pool {
                  protected int limit;
                  protected int used;

                  public int available() {
                      return limit - used;
                  }
              }
          """)},
    left={"Pool.java": j("""
              package pools;

              public class Pool {
                  protected int used;

                  public int available() {
                      return 100 - used;
                  }
              }
          """)},
    right={"Pool.java": j("""
               package pools;

               public class Pool {
                   protected int limit;
                   protected int used;

                   public int available() {
                       return limit - used;
                   }

                   public int free() {
                       return limit - used;
                   }
               }
           """)},
    expected={"Pool.java": j("""
                  package pools;

                  public class Pool {
                      protected int used;

                      public int available() {
                          return 100 - used;
                      }

                      public int free() {
                          return 100 - used;
                      }
                  }
              """)},
    golden={"conflicts": [{"type": "C20", "subject": "pools.Pool.limit"}],
            "sites": [{"entity": "pools.Pool.free()", "file": "Pool.java"}],
            "example": "correct", "rule": None},
)


scenario(
    "tax-c21",
    base={"Mailer.java": j("""
              package svc;

              public class Mailer {
                  public void send(String to) {
                  }

                  public void notifyAdmin() {
                      send("admin");
                  }
              }
          """)},
    left={"Mailer.java": j("""
              package svc;

              public class Mailer {
                  public void send(String to, boolean urgent) {
                  }

                  public void notifyAdmin() {
                      send("admin", false);
                  }
              }
          """)},
    right={"Mailer.java": j("""
               package svc;

               public class Mailer {
                   public void send(String to) {
                   }

                   public void notifyAdmin() {
                       send("admin");
                   }

                   public void alert() {
                       send("admin");
                   }
               }
           """)},
    expected={"Mailer.java": j("""
                  package svc;

                  public class Mailer {
                      public void send(String to, boolean urgent) {
                      }

                      public void notifyAdmin() {
                          send("admin", false);
                      }

                      public void alert() {
                          send("admin", false);
                      }
                  }
              """)},
    golden={"conflicts": [{"type": "C21",
                           "subject": "svc.Mailer.send(String)"}],
            "sites": [{"entity": "svc.Mailer.alert()",
                       "file": "Mailer.java"}],
            "example": "correct", "rule": None},
)


scenario(
    "tax-c22",
    base={"Meter.java": j("""
              package mtr;

              public class Meter {
                  public int read() {
                      return 0;
                  }

                  public void sample() {
                      store(read());
                  }

                  public void store(int v) {
                  }
              }
          """)},
    left={"Meter.java": j("""
              package mtr;

              public class Meter {
                  public long read() {
                      return 0;
                  }

                  public void sample() {
                      store((int) read());
                  }

                  public void store(int v) {
                  }
              }
          """)},
    right={"Meter.java": j("""
               package mtr;

               public class Meter {
                   public int read() {
                       return 0;
                   }

                   public void sample() {
                       store(read());
                   }

                   public void store(int v) {
                   }

                   public void log() {
                       store(read());
                   }
               }
           """)},
    expected={"Meter.java": j("""
                  package mtr;

                  public class Meter {
                      public long read() {
                          return 0;
                      }

                      public void sample() {
                          store((int) read());
                      }

                      public void store(int v) {
                      }

                      public void log() {
                          store((int) read());
                      }
                  }
              """)},
    golden={"conflicts": [{"type": "C22", "subject": "mtr.Meter.read()"}],
            "sites": [{"entity": "mtr.Meter.log()", "file": "Meter.java"}],
            "example": "correct", "rule": None},
)


scenario(
    "tax-c23",
    base={"Cache.java": j("""
              package cch;

              public class Cache {
                  public Object fetch(String k) {
                      return null;
                  }

                  public Object load(String k) {
                      Object fresh = null;
                      return fresh;
                  }

                  public Object get(String k) {
                      Object v = fetch(k);
                      return v;
                  }
              }
          """)},
    left={"Cache.java": j("""
              package cch;

              public class Cache {
                  public Object load(String k) {
                      Object fresh = null;
                      return fresh;
                  }

                  public Object get(String k) {
                      Object v = load(k);
                      return v;
                  }
              }
          """)},
    right={"Cache.java": j("""
               package cch;

               public class Cache {
                   public Object fetch(String k) {
                       return null;
                   }

                   public Object load(String k) {
                       Object fresh = null;
                       return fresh;
                   }

                   public Object get(String k) {
                       Object v = fetch(k);
                       return v;
                   }

                   public Object peek(String k) {
                       Object v = fetch(k);
                       return v;
                   }
               }
           """)},
    expected={"Cache.java": j("""
                  package cch;

                  public class Cache {
                      public Object load(String k) {
                          Object fresh = null;
                          return fresh;
                      }

                      public Object get(String k) {
                          Object v = load(k);
                          return v;
                      }

                      public Object peek(String k) {
                          Object v = load(k);
                          return v;
                      }
                  }
              """)},
    golden={"conflicts": [{"type": "C23",
                           "subject": "cch.Cache.fetch(String)"}],
            "sites": [{"entity": "cch.Cache.peek(String)",
                       "file": "Cache.java"}],
            "example": "correct", "rule": None},
)


# ===========================================================================
# rule-resolver fixtures: one per covered repair action, no minable history


_INVOICE = j("""
    package bill;

    public class Invoice {
        public int total;
        public int taxCents;

        public void addLine(int amount) {
            total = total + amount;
        }
    }
""")

scenario(
    "rule-c01",
    base={"Invoice.java": _INVOICE},
    left={"Receipt.java": _INVOICE.replace("Invoice", "Receipt")},
    right={"Invoice.java": _INVOICE,
           "Ledger.java": j("""
               package bill;

               public class Ledger {
                   public void post() {
                       Invoice inv = new Invoice();
                       inv.total = 5;
                   }
               }
           """)},
    expected={"Receipt.java": _INVOICE.replace("Invoice", "Receipt"),
              "Ledger.java": j("""
                  package bill;

                  public class Ledger {
                      public void post() {
                          Receipt inv = new Receipt();
                          inv.total = 5;
                      }
                  }
              """)},
    golden={"conflicts": [{"type": "C1", "subject": "bill.Invoice"}],
            "sites": [{"entity": "bill.Ledger.post()",
                       "file": "Ledger.java"}],
            "example": None, "rule": "correct"},
)


scenario(
    "rule-c02",
    base={"Animal.java": j("""
              package zoo;

              public class Animal {
                  public void feed() {
                  }
              }
          """)},
    left={"Animal.java": j("""
              package zoo;

              public class Animal {
                  public void feed() {
                  }

                  protected int weight() {
                      return 10;
                  }
              }
          """)},
    right={"Animal.java": j("""
               package zoo;

               public class Animal {
                   public void feed() {
                   }
               }
           """),
           "Lion.java": j("""
               package zoo;

               public class Lion extends Animal {
                   protected double weight() {
                       return 200;
                   }
               }
           """)},
    expected={"Animal.java": j("""
                  package zoo;

                  public class Animal {
                      public void feed() {
                      }

                      protected int weight() {
                          return 10;
                      }
                  }
              """),
              "Lion.java": j("""
                  package zoo;

                  public class Lion extends Animal {
                      protected int weight() {
                          return 200;
                      }
                  }
              """)},
    golden={"conflicts": [{"type": "C2", "subject": "zoo.Animal.weight()"}],
            "sites": [{"entity": "zoo.Lion.weight()", "file": "Lion.java"}],
            "example": None, "rule": "correct"},
)


scenario(
    "rule-c03",
    base={"Editor.java": j("""
              package txt;

              public class Editor {
                  public void insert(String s) {
                  }
              }
          """)},
    left={"Editor.java": j("""
              package txt;

              public class Editor {
                  public void insert(String s, int at) {
                  }
              }
          """)},
    right={"Editor.java": j("""
               package txt;

               public class Editor {
                   public void insert(String s) {
                   }
               }
           """),
           "RichEditor.java": j("""
               package txt;

               public class RichEditor extends Editor {
                   public void insert(String s) {
                   }
               }
           """)},
    expected={"Editor.java": j("""
                  package txt;

                  public class Editor {
                      public void insert(String s, int at) {
                      }
                  }
              """),
              "RichEditor.java": j("""
                  package txt;

                  public class RichEditor extends Editor {
                      public void insert(String s, int at) {
                      }
                  }
              """)},
    golden={"conflicts": [{"type": "C3",
                           "subject": "txt.Editor.insert(String)"}],
            "sites": [{"entity": "txt.RichEditor.insert(String)",
                       "file": "RichEditor.java"}],
            "example": None, "rule": "correct"},
)


scenario(
    "rule-c04",
    base={"Track.java": j("""
              package mus;

              public class Track {
                  public int length() {
                      return 0;
                  }
              }
          """)},
    left={"Track.java": j("""
              package mus;

              public class Track {
                  public long length() {
                      return 0;
                  }
              }
          """)},
    right={"Track.java": j("""
               package mus;

               public class Track {
                   public int length() {
                       return 0;
                   }
               }
           """),
           "Remix.java": j("""
               package mus;

               public class Remix extends Track {
                   public int length() {
                       return 3;
                   }
               }
           """)},
    expected={"Track.java": j("""
                  package mus;

                  public class Track {
                      public long length() {
                          return 0;
                      }
                  }
              """),
              "Remix.java": j("""
                  package mus;

                  public class Remix extends Track {
                      public long length() {
                          return 3;
                      }
                  }
              """)},
    golden={"conflicts": [{"type": "C4", "subject": "mus.Track.length()"}],
            "sites": [{"entity": "mus.Remix.length()", "file": "Remix.java"}],
            "example": None, "rule": "correct"},
)


scenario(
    "rule-c05",
    base={"Walker.java": j("""
              package fs;

              import java.io.File;

              public class Walker {
                  public void noop() {
                  }
              }
          """)},
    left={"Walker.java": j("""
              package fs;

              public class Walker {
                  public void noop() {
                  }
              }
          """)},
    right={"Walker.java": j("""
               package fs;

               import java.io.File;

               public class Walker {
                   public void noop() {
                   }

                   public File probe() {
                       File f = null;
                       return f;
                   }
               }
           """)},
    expected={"Walker.java": j("""
                  package fs;

                  import java.io.File;

                  public class Walker {
                      public void noop() {
                      }

                      public File probe() {
                          File f = null;
                          return f;
                      }
                  }
              """)},
    golden={"conflicts": [{"type": "C5", "subject": "java.io.File"}],
            "sites": [{"entity": "fs.Walker.probe()",
                       "file": "Walker.java"}],
            "example": None, "rule": "correct"},
)


_KEEPER = j("""
    package data.store;

    public class Keeper {
        public void keep() {
        }
    }
""")

scenario(
    "rule-c06",
    base={"data/store/Keeper.java": _KEEPER},
    left={"data/vault/Keeper.java": _KEEPER.replace("data.store",
                                                    "data.vault")},
    right={"data/store/Keeper.java": _KEEPER,
           "cl/Client.java": j("""
               package cl;

               import data.store.Keeper;

               public class Client {
                   public void save() {
                       Keeper k = null;
                       k.keep();
                   }
               }
           """)},
    expected={"data/vault/Keeper.java": _KEEPER.replace("data.store",
                                                        "data.vault"),
              "cl/Client.java": j("""
                  package cl;

                  import data.vault.Keeper;

                  public class Client {
                      public void save() {
                          Keeper k = null;
                          k.keep();
                      }
                  }
              """)},
    golden={"conflicts": [{"type": "C6", "subject": "data.store"}],
            "sites": [{"entity": "cl.Client", "file": "cl/Client.java"}],
            "example": None, "rule": "correct"},
)


_PLUGIN = j("""
    package plug;

    public interface Plugin {
        void run();
    }
""")

scenario(
    "rule-c07",
    base={"Plugin.java": _PLUGIN},
    left={"Extension.java": _PLUGIN.replace("Plugin", "Extension")},
    right={"Plugin.java": _PLUGIN,
           "HelloPlugin.java": j("""
               package plug;

               public class HelloPlugin implements Plugin {
                   public void run() {
                   }
               }
           """)},
    expected={"Extension.java": _PLUGIN.replace("Plugin", "Extension"),
              "HelloPlugin.java": j("""
                  package plug;

                  public class HelloPlugin implements Extension {
                      public void run() {
                      }
                  }
              """)},
    golden={"conflicts": [{"type": "C7", "subject": "plug.Plugin"}],
            "sites": [{"entity": "plug.HelloPlugin",
                       "file": "HelloPlugin.java"}],
            "example": None, "rule": "correct"},
)


scenario(
    "rule-c08",
    base={"Sensor.java": j("""
              package sens;

              public interface Sensor {
                  double read();
              }
          """)},
    left={"Sensor.java": j("""
              package sens;

              public interface Sensor {
                  double read();

                  void reset();
              }
          """)},
    right={"Sensor.java": j("""
               package sens;

               public interface Sensor {
                   double read();
               }
           """),
           "TempSensor.java": j("""
               package sens;

               public class TempSensor implements Sensor {
                   public double read() {
                       return 0;
                   }
               }
           """)},
    expected={"Sensor.java": j("""
                  package sens;

                  public interface Sensor {
                      double read();

                      void reset();
                  }
              """),
              "TempSensor.java": j("""
                  package sens;

                  public class TempSensor implements Sensor {
                      public double read() {
                          return 0;
                      }

                      public void reset() {
                      }
                  }
              """)},
    golden={"conflicts": [{"type": "C8", "subject": "sens.Sensor.reset()"}],
            "sites": [{"entity": "sens.TempSensor",
                       "file": "TempSensor.java"}],
            "example": None, "rule": "correct"},
)


scenario(
    "rule-c09",
    base={"Cipher.java": j("""
              package crypt;

              public interface Cipher {
                  String wrap(String t);
              }
          """)},
    left={"Cipher.java": j("""
              package crypt;

              public interface Cipher {
                  String wrap(String t, int rounds);
              }
          """)},
    right={"Cipher.java": j("""
               package crypt;

               public interface Cipher {
                   String wrap(String t);
               }
           """),
           "Rot13.java": j("""
               package crypt;

               public class Rot13 implements Cipher {
                   public String wrap(String t) {
                       return t;
                   }
               }
           """)},
    expected={"Cipher.java": j("""
                  package crypt;

                  public interface Cipher {
                      String wrap(String t, int rounds);
                  }
              """),
              "Rot13.java": j("""
                  package crypt;

                  public class Rot13 implements Cipher {
                      public String wrap(String t, int rounds) {
                          return t;
                      }
                  }
              """)},
    golden={"conflicts": [{"type": "C9",
                           "subject": "crypt.Cipher.wrap(String)"}],
            "sites": [{"entity": "crypt.Rot13.wrap(String)",
                       "file": "Rot13.java"}],
            "example": None, "rule": "correct"},
)


scenario(
    "rule-c10",
    base={"Bus.java": j("""
              package evt;

              public interface Bus {
                  void post();

                  void flushNow();
              }
          """)},
    left={"Bus.java": j("""
              package evt;

              public interface Bus {
                  void post();
              }
          """)},
    right={"Bus.java": j("""
               package evt;

               public interface Bus {
                   void post();

                   void flushNow();
               }
           """),
           "AsyncBus.java": j("""
               package evt;

               public class AsyncBus implements Bus {
                   public void post() {
                   }

                   public void flushNow() {
                   }
               }
           """)},
    expected={"Bus.java": j("""
                  package evt;

                  public interface Bus {
                      void post();
                  }
              """),
              "AsyncBus.java": j("""
                  package evt;

                  public class AsyncBus implements Bus {
                      public void post() {
                      }
                  }
              """)},
    golden={"conflicts": [{"type": "C10", "subject": "evt.Bus.flushNow()"}],
            "sites": [{"entity": "evt.AsyncBus.flushNow()",
                       "file": "AsyncBus.java"}],
            "example": None, "rule": "correct"},
)


scenario(
    "rule-c11",
    base={"Source.java": j("""
              package rd;

              public interface Source {
                  int next();
              }
          """)},
    left={"Source.java": j("""
              package rd;

              public interface Source {
                  int pull();
              }
          """)},
    right={"Source.java": j("""
               package rd;

               public interface Source {
                   int next();
               }
           """),
           "ArraySource.java": j("""
               package rd;

               public class ArraySource implements Source {
                   public int next() {
                       return 1;
                   }
               }
           """)},
    expected={"Source.java": j("""
                  package rd;

                  public interface Source {
                      int pull();
                  }
              """),
              "ArraySource.java": j("""
                  package rd;

                  public class ArraySource implements Source {
                      public int pull() {
                          return 1;
                      }
                  }
              """)},
    golden={"conflicts": [{"type": "C11", "subject": "rd.Source.next()"}],
            "sites": [{"entity": "rd.ArraySource.next()",
                       "file": "ArraySource.java"}],
            "example": None, "rule": "correct"},
)


scenario(
    "rule-c12",
    base={"Player.java": j("""
              package med;

              public interface Player {
                  String title();
              }
          """),
          "Disc.java": j("""
              package med;

              public class Disc {
                  public String title() {
                      return "d";
                  }
              }
          """)},
    left={"Player.java": j("""
              package med;

              public interface Player {
                  String title();
              }
          """),
          "Disc.java": j("""
              package med;

              public class Disc implements Player {
                  public String title() {
                      return "d";
                  }
              }
          """)},
    right={"Player.java": j("""
               package med;

               public interface Player {
                   String title();
               }
           """),
           "Disc.java": j("""
               package med;

               public class Disc {
                   public Object title() {
                       return "d";
                   }
               }
           """)},
    expected={"Player.java": j("""
                  package med;

                  public interface Player {
                      String title();
                  }
              """),
              "Disc.java": j("""
                  package med;

                  public class Disc implements Player {
                      public String title() {
                          return "d";
                      }
                  }
              """)},
    golden={"conflicts": [{"type": "C12", "subject": "med.Disc"}],
            "sites": [{"entity": "med.Disc.title()", "file": "Disc.java"}],
            "example": None, "rule": "correct"},
)


scenario(
    "rule-c13",
    base={"Point.java": j("""
              package geo2;

              public class Point {
                  public int col;
              }
          """)},
    left={"Point.java": j("""
              package geo2;

              public class Point {
                  public int column;
              }
          """)},
    right={"Point.java": j("""
               package geo2;

               public class Point {
                   public int col;

                   public int width() {
                       return col * 2;
                   }
               }
           """)},
    expected={"Point.java": j("""
                  package geo2;

                  public class Point {
                      public int column;

                      public int width() {
                          return column * 2;
                      }
                  }
              """)},
    golden={"conflicts": [{"type": "C13", "subject": "geo2.Point.col"}],
            "sites": [{"entity": "geo2.Point.width()", "file": "Point.java"}],
            "example": None, "rule": "correct"},
)


scenario(
    "rule-c14",
    base={"Theme.java": j("""
              package ui;

              public class Theme {
                  public int pad;

                  public void apply() {
                  }
              }
          """)},
    left={"Theme.java": j("""
              package ui;

              public class Theme {
                  public int pad;

                  public boolean dark = true;

                  public void apply() {
                  }
              }
          """)},
    right={"Theme.java": j("""
               package ui;

               public class Theme {
                   public int pad;

                   public void apply() {
                   }

                   public boolean dark = false;
               }
           """)},
    expected={"Theme.java": j("""
                  package ui;

                  public class Theme {
                      public int pad;

                      public boolean dark = true;

                      public void apply() {
                      }
                  }
              """)},
    golden={"conflicts": [{"type": "C14", "subject": "ui.Theme.dark"}],
            "sites": [{"entity": "ui.Theme.dark", "file": "Theme.java"},
                      {"entity": "ui.Theme.dark#2", "file": "Theme.java"}],
            "example": None, "rule": "correct"},
)


scenario(
    "rule-c15",
    base={"Mixer.java": j("""
              package snd;

              public class Mixer {
                  public void play(String f) {
                  }
              }
          """)},
    left={"Mixer.java": j("""
              package snd;

              public class Mixer {
                  public void start(String f) {
                  }
              }
          """)},
    right={"Mixer.java": j("""
               package snd;

               public class Mixer {
                   public void play(String f) {
                   }

                   public void cue() {
                       play("intro");
                   }
               }
           """)},
    expected={"Mixer.java": j("""
                  package snd;

                  public class Mixer {
                      public void start(String f) {
                      }

                      public void cue() {
                          start("intro");
                      }
                  }
              """)},
    golden={"conflicts": [{"type": "C15",
                           "subject": "snd.Mixer.play(String)"}],
            "sites": [{"entity": "snd.Mixer.cue()", "file": "Mixer.java"}],
            "example": None, "rule": "correct"},
)


scenario(
    "rule-c16",
    base={"Wallet.java": j("""
              package acct;

              public class Wallet {
                  private long cents;

                  public void init() {
                  }
              }
          """)},
    left={"Wallet.java": j("""
              package acct;

              public class Wallet {
                  private long cents;

                  public long balance() {
                      return cents;
                  }

                  public void init() {
                  }
              }
          """)},
    right={"Wallet.java": j("""
               package acct;

               public class Wallet {
                   private long cents;

                   public void init() {
                   }

                   public long balance() {
                       return 0;
                   }
               }
           """)},
    expected={"Wallet.java": j("""
                  package acct;

                  public class Wallet {
                      private long cents;

                      public long balance() {
                          return cents;
                      }

                      public void init() {
                      }
                  }
              """)},
    golden={"conflicts": [{"type": "C16", "subject": "acct.Wallet.balance()"}],
            "sites": [{"entity": "acct.Wallet.balance()",
                       "file": "Wallet.java"},
                      {"entity": "acct.Wallet.balance()#2",
                       "file": "Wallet.java"}],
            "example": None, "rule": "correct"},
)


# ===========================================================================
# negative controls: ordinary concurrent work that must stay silent


control(
    "ctl-01",
    base={"Counter.java": j("""
              package c1;

              public class Counter {
                  private int n;

                  public void up() {
                      n = n + 1;
                  }

                  public void down() {
                      n = n - 1;
                  }
              }
          """)},
    left={"Counter.java": j("""
              package c1;

              public class Counter {
                  private int n;

                  public void up() {
                      n = n + 2;
                  }

                  public void down() {
                      n = n - 1;
                  }
              }
          """)},
    right={"Counter.java": j("""
               package c1;

               public class Counter {
                   private int n;

                   public void up() {
                       n = n + 1;
                   }

                   public void down() {
                       n = n - 2;
                   }
               }
           """)},
)


_BADGE = j("""
    package c2;

    public class Badge {
        public String label;
    }
""")

control(
    "ctl-02",
    base={"Badge.java": _BADGE,
          "Desk.java": j("""
              package c2;

              public class Desk {
                  public void tidy() {
                      int piles = 3;
                  }
              }
          """)},
    left={"Tag.java": _BADGE.replace("Badge", "Tag"),
          "Desk.java": j("""
              package c2;

              public class Desk {
                  public void tidy() {
                      int piles = 3;
                  }
              }
          """)},
    right={"Badge.java": _BADGE,
           "Desk.java": j("""
               package c2;

               public class Desk {
                   public void tidy() {
                       int piles = 4;
                   }
               }
           """)},
)


_GAUGE = j("""
    package c3;

    public class Gauge {
        public int level() {
            return 7;
        }
    }
""")

control(
    "ctl-03",
    base={"Gauge.java": _GAUGE,
          "Panel.java": j("""
              package c3;

              public class Panel {
                  public void draw() {
                  }
              }
          """)},
    left={"Gauge.java": _GAUGE,
          "Panel.java": j("""
              package c3;

              public class Panel {
                  public void draw() {
                      int frame = 1;
                  }
              }
          """)},
    right={"Gauge.java": _GAUGE,
           "Panel.java": j("""
               package c3;

               public class Panel {
                   public void draw() {
                   }

                   public int sample() {
                       Gauge g = new Gauge();
                       return g.level();
                   }
               }
           """)},
)


control(
    "ctl-04",
    base={"Profile.java": j("""
              package c4;

              public class Profile {
                  public String name;

                  public void clear() {
                  }
              }
          """)},
    left={"Profile.java": j("""
              package c4;

              public class Profile {
                  public String name;

                  public int age;

                  public void clear() {
                  }
              }
          """)},
    right={"Profile.java": j("""
               package c4;

               public class Profile {
                   public String name;

                   public void clear() {
                   }

                   public String city;
               }
           """)},
)


control(
    "ctl-05",
    base={"Report.java": j("""
              package c5;

              import java.util.Date;

              public class Report {
                  public void emit() {
                  }
              }
          """)},
    left={"Report.java": j("""
              package c5;

              public class Report {
                  public void emit() {
                  }
              }
          """)},
    right={"Report.java": j("""
               package c5;

               import java.util.Date;

               public class Report {
                   public void emit() {
                   }

                   public int pages() {
                       return 12;
                   }
               }
           """)},
)


control(
    "ctl-06",
    base={"Feed.java": j("""
              package c6;

              public interface Feed {
                  void open();
              }
          """)},
    left={"Feed.java": j("""
              package c6;

              public interface Feed {
                  void open();

                  void close();
              }
          """)},
    right={"Feed.java": j("""
               package c6;

               public interface Feed {
                   void open();
               }
           """),
           "RssFeed.java": j("""
               package c6;

               public class RssFeed implements Feed {
                   public void open() {
                   }

                   public void close() {
                   }
               }
           """)},
)


control(
    "ctl-07",
    base={"Queue2.java": j("""
              package c7;

              public class Queue2 {
                  public void push(int v) {
                  }
              }
          """)},
    left={"Queue2.java": j("""
              package c7;

              public class Queue2 {
                  public void push(int v, boolean front) {
                  }
              }
          """)},
    right={"Queue2.java": j("""
               package c7;

               public class Queue2 {
                   public void push(int v) {
                   }

                   public void seed() {
                       push(1, true);
                   }
               }
           """)},
)


control(
    "ctl-08",
    base={"Vault.java": j("""
              package c8;

              public class Vault {
                  private void wipe() {
                  }

                  public void lock() {
                  }
              }
          """)},
    left={"Vault.java": j("""
              package c8;

              public class Vault {
                  public void lock() {
                  }
              }
          """)},
    right={"Vault.java": j("""
               package c8;

               public class Vault {
                   private void wipe() {
                   }

                   public void lock() {
                   }

                   public void unlock() {
                   }
               }
           """)},
)


_CLOCK = j("""
    package c9;

    public class Clock {
        public long now() {
            return 0;
        }
    }
""")

control(
    "ctl-09",
    base={"Clock.java": _CLOCK,
          "Alarm.java": j("""
              package c9;

              public class Alarm {
                  public void ring() {
                  }
              }
          """)},
    left={"Clock.java": _CLOCK,
          "Alarm.java": j("""
              package c9;

              public class Alarm {
                  public void ring() {
                  }

                  public long due() {
                      Clock c = new Clock();
                      return c.now();
                  }
              }
          """)},
    right={"Clock.java": _CLOCK,
           "Alarm.java": j("""
               package c9;

               public class Alarm {
                   public void ring() {
                       int volume = 9;
                   }
               }
           """)},
)


control(
    "ctl-10",
    base={"Paint.java": j("""
              package c10;

              public class Paint {
                  public void mix() {
                      int parts = 2;
                      int tint = parts + 1;
                  }
              }
          """)},
    left={"Paint.java": "package c10;\n\npublic class Paint {\n"
                        "    public void mix() {\n"
                        "        int parts = 2;   int tint = parts + 1;\n"
                        "    }\n"
                        "}\n"},
    right={"Paint.java": j("""
               package c10;

               public class Paint {
                   public void mix() {
                       int parts = 2;
                       int tint = parts + 1;
                   }

                   public void stir() {
                   }
               }
           """)},
)


# ===========================================================================
# writer


def write_corpus(out: Path = CORPUS) -> None:
    """Writes the scenarios, the controls, golden_key.json and
    manifest.json under ``out``, which is emptied first."""
    if out.exists():
        shutil.rmtree(out)
    golden_key = {}
    for name, entry in sorted(SCENARIOS.items()):
        for role in ("base", "left", "right", "expected"):
            for rel, text in entry[role].items():
                target = out / name / role / rel
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(text)
        golden_key[name] = entry["golden"]
    for name, entry in sorted(CONTROLS.items()):
        for role in ("base", "left", "right"):
            for rel, text in entry[role].items():
                target = out / "controls" / name / role / rel
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(text)
    (out / "golden_key.json").write_text(
        json.dumps(golden_key, indent=2, sort_keys=True) + "\n")
    manifest = {
        "scenarios": sorted(SCENARIOS),
        "controls": sorted(CONTROLS),
        "counts": {"scenarios": len(SCENARIOS), "controls": len(CONTROLS)},
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(SCENARIOS)} scenarios and {len(CONTROLS)} controls "
          f"to {out}")


if __name__ == "__main__":
    write_corpus()
